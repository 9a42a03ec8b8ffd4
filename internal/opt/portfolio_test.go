package opt

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/verify"
)

func eagleSetup(t *testing.T, seed int64, gates int) (*circuit.Circuit, []Transformation) {
	t.Helper()
	ts, err := Instantiate(gateset.IBMEagle, InstantiateOptions{
		EpsilonF:  1e-8,
		SynthTime: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.Random(5, gates, gateset.IBMEagle.Gates, rand.New(rand.NewSource(seed)))
	return c, ts
}

// TestTempRung pins the portfolio temperature ladder: the first seven
// workers reproduce the historical fixed table exactly (so existing tuned
// deployments keep their configurations), and beyond that the progression
// keeps generating distinct rungs instead of wrapping — the old table
// repeated worker 0's multiplier at worker 7 and then cycled, so portfolios
// with ≥ 8 workers burned CPU on duplicate configurations.
func TestTempRung(t *testing.T) {
	legacy := []float64{1, 0.5, 2, 0.25, 4, 0.125, 8}
	for w, want := range legacy {
		if got := tempRung(w); got != want {
			t.Errorf("tempRung(%d) = %v, want legacy rung %v", w, got, want)
		}
	}
	seen := map[float64]int{}
	for w := 0; w < 16; w++ {
		r := tempRung(w)
		if r <= 0 {
			t.Fatalf("tempRung(%d) = %v, want > 0", w, r)
		}
		if prev, dup := seen[r]; dup {
			t.Errorf("tempRung wraps: workers %d and %d share rung %v", prev, w, r)
		}
		seen[r] = w
	}
}

// Same seed ⇒ byte-identical output in synchronous single-worker mode: the
// reproducibility contract documented on Options.Seed.
func TestSynchronousDeterminism(t *testing.T) {
	c, ts := eagleSetup(t, 3, 50)
	run := func() string {
		opts := DefaultOptions()
		opts.Cost = TwoQubitCost()
		opts.Seed = 99
		opts.Async = false
		opts.MaxIters = 600
		return GUOQ(c, ts, opts).Best.WriteQASM()
	}
	first := run()
	for i := 0; i < 2; i++ {
		if got := run(); got != first {
			t.Fatalf("synchronous runs with equal seeds diverged:\n%s\nvs\n%s", first, got)
		}
	}
}

// Portfolio with one worker must degrade to the classic loop exactly.
func TestPortfolioSingleWorkerIsGUOQ(t *testing.T) {
	c, ts := eagleSetup(t, 4, 40)
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.Seed = 5
	opts.Async = false
	opts.MaxIters = 300
	direct := GUOQ(c, ts, opts).Best.WriteQASM()
	viaPortfolio := Portfolio(c, ts, opts, 1).Best.WriteQASM()
	if direct != viaPortfolio {
		t.Fatal("Portfolio(workers=1) diverged from GUOQ with identical options")
	}
}

// The coordinator hands the global best only to workers that are strictly
// behind, and never regresses on a worse report.
func TestCoordinatorExchange(t *testing.T) {
	cost := TwoQubitCost()
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rand.New(rand.NewSource(8)))
	better := circuit.New(4) // empty circuit: cost 0, unbeatable
	co := newCoordinator(base, cost, nil, 0)

	if _, _, ok := co.Exchange(base, 0, cost(base)); ok {
		t.Fatal("exchange offered a solution no better than the caller's")
	}
	if _, _, ok := co.Exchange(better, 1e-9, cost(better)); ok {
		t.Fatal("exchange offered the publisher its own solution back")
	}
	adopt, adoptErr, ok := co.Exchange(base, 0, cost(base))
	if !ok || adopt != better || adoptErr != 1e-9 {
		t.Fatalf("exchange did not return the published best: ok=%v adopt=%p err=%g", ok, adopt, adoptErr)
	}
	// A stale worse report must not displace the stored best.
	if _, _, ok := co.Exchange(base, 0, cost(base)); !ok {
		t.Fatal("best was lost after a worse report")
	}
}

// countingExchanger counts upstream polls and never offers anything back —
// the "stuck remote session" the exponential backoff is for.
type countingExchanger struct{ calls int }

func (e *countingExchanger) Exchange(*circuit.Circuit, float64, float64) (*circuit.Circuit, float64, bool) {
	e.calls++
	return nil, 0, false
}

// Unproductive upstream syncs must back the poll period off exponentially
// (capped at 16× the configured base), and any productive sync — here a
// pushed local improvement — must reset it.
func TestCoordinatorUpstreamBackoff(t *testing.T) {
	cost := TwoQubitCost()
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rand.New(rand.NewSource(8)))
	up := &countingExchanger{}
	co := newCoordinator(base, cost, up, time.Hour)
	if co.syncWait != time.Hour {
		t.Fatalf("syncWait starts at %v, want the configured base", co.syncWait)
	}

	// Idle polls (no local improvement): each unproductive sync doubles the
	// wait, saturating at 16× base. The test rolls lastSync back to make
	// every poll due without sleeping.
	wants := []time.Duration{2, 4, 8, 16, 16, 16}
	for i, mult := range wants {
		co.lastSync = time.Now().Add(-32 * time.Hour)
		co.Exchange(base, 0, cost(base))
		if want := time.Duration(mult) * time.Hour; co.syncWait != want {
			t.Fatalf("after %d unproductive syncs: syncWait %v, want %v", i+1, co.syncWait, want)
		}
	}
	if up.calls != len(wants) {
		t.Fatalf("upstream polled %d times, want %d", up.calls, len(wants))
	}

	// A local improvement syncs immediately (no matter the wait) and, being
	// productive, resets the period to the base.
	better := circuit.New(4)
	co.Exchange(better, 0, cost(better))
	if up.calls != len(wants)+1 {
		t.Fatal("local improvement was not pushed upstream immediately")
	}
	if co.syncWait != time.Hour {
		t.Fatalf("productive sync left syncWait at %v, want reset to base", co.syncWait)
	}
}

// Exercises the coordinator and the async resynthesis worker together
// under concurrency — the main subject of `go test -race ./internal/opt`.
func TestPortfolioConcurrentWithAsync(t *testing.T) {
	c, ts := eagleSetup(t, 6, 60)
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.Seed = 2
	opts.Async = true
	opts.Context = timeout(t, 150*time.Millisecond)
	opts.ExchangeEvery = 8 // high migration pressure
	res := Portfolio(c, ts, opts, 4)
	if res.Best == nil || res.Iters == 0 {
		t.Fatal("portfolio did no work")
	}
	if res.BestError > opts.Epsilon {
		t.Fatalf("BestError %g exceeds budget %g", res.BestError, opts.Epsilon)
	}
	if err := verify.MustBeEquivalent(c, res.Best, 1e-6, 3); err != nil {
		t.Fatal(err)
	}
	if got, in := opts.Cost(res.Best), opts.Cost(c); got > in {
		t.Fatalf("cost regressed: %g -> %g", in, got)
	}
}

// Concurrent portfolios over the same shared transformation set: the
// transformations themselves must be safe to share between engines.
func TestSharedTransformationsAcrossPortfolios(t *testing.T) {
	c, ts := eagleSetup(t, 9, 40)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Cost = TwoQubitCost()
			opts.Seed = seed
			opts.Context = timeout(t, 80*time.Millisecond)
			Portfolio(c, ts, opts, 2)
		}(int64(i))
	}
	wg.Wait()
}

// Partition-parallel must stitch an equivalent circuit and keep the summed
// per-window error within the global budget (Thm 4.2 composition).
func TestPartitionParallelComposition(t *testing.T) {
	c, ts := eagleSetup(t, 11, 96) // 4 windows of minWindowGates
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.Seed = 13
	opts.Context = timeout(t, 150*time.Millisecond)
	res := PartitionParallel(c, ts, opts, 4)
	if res.Best.NumQubits != c.NumQubits {
		t.Fatalf("qubit count changed: %d -> %d", c.NumQubits, res.Best.NumQubits)
	}
	if res.BestError > opts.Epsilon {
		t.Fatalf("summed window error %g exceeds global budget %g", res.BestError, opts.Epsilon)
	}
	if got, in := opts.Cost(res.Best), opts.Cost(c); got > in {
		t.Fatalf("cost regressed: %g -> %g", in, got)
	}
	if err := verify.MustBeEquivalent(c, res.Best, 1e-6, 17); err != nil {
		t.Fatal(err)
	}
}

// fakeUpstream is a canned remote coordinator: it always offers the same
// solution and records what was published to it.
type fakeUpstream struct {
	mu        sync.Mutex
	offer     *circuit.Circuit
	offerErr  float64
	offerCost float64
	published int
	bestSeen  float64
}

func (f *fakeUpstream) Exchange(best *circuit.Circuit, bestErr, bestCost float64) (*circuit.Circuit, float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.published++
	if f.published == 1 || bestCost < f.bestSeen {
		f.bestSeen = bestCost
	}
	if f.offer != nil && f.offerCost < bestCost {
		return f.offer, f.offerErr, true
	}
	return nil, 0, false
}

// A portfolio with Options.Exchanger set relays through it: remote
// solutions flow into the workers (counted as migrations) and the
// portfolio's own best is published outward.
func TestPortfolioUpstreamExchanger(t *testing.T) {
	c, ts := eagleSetup(t, 7, 40)
	up := &fakeUpstream{offer: circuit.New(5), offerErr: 3e-9, offerCost: 0}
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.Seed = 21
	opts.MaxIters = 200
	opts.Async = false
	opts.Exchanger = up
	res := Portfolio(c, ts, opts, 2)

	if got := opts.Cost(res.Best); got != 0 {
		t.Fatalf("portfolio did not adopt the upstream offer: cost %g, want 0", got)
	}
	if res.BestError != 3e-9 {
		t.Fatalf("adopted solution lost its error bound: %g, want 3e-9", res.BestError)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations recorded despite upstream adoption")
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.published == 0 {
		t.Fatal("portfolio never published to the upstream coordinator")
	}
}

// Partition-parallel publishes its stitched result to an upstream
// exchanger (and adopts a strictly better remote solution), so -partition
// runs participate in a distributed session rather than dropping it.
func TestPartitionParallelUpstreamExchanger(t *testing.T) {
	c, ts := eagleSetup(t, 14, 96) // large enough to window
	up := &fakeUpstream{}
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.Seed = 5
	opts.Context = timeout(t, 80*time.Millisecond)
	opts.Exchanger = up
	res := PartitionParallel(c, ts, opts, 4)

	up.mu.Lock()
	published, bestSeen := up.published, up.bestSeen
	up.mu.Unlock()
	if published == 0 {
		t.Fatal("partition-parallel never published to the upstream coordinator")
	}
	if got := opts.Cost(res.Best); bestSeen != got {
		t.Fatalf("published cost %g does not match the returned result's %g", bestSeen, got)
	}
}

// Circuits too small to window must silently fall back to the portfolio.
func TestPartitionParallelSmallCircuitFallback(t *testing.T) {
	c, ts := eagleSetup(t, 12, 20) // below 2×minWindowGates
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.Seed = 1
	opts.Context = timeout(t, 60*time.Millisecond)
	res := PartitionParallel(c, ts, opts, 4)
	if err := verify.MustBeEquivalent(c, res.Best, 1e-6, 19); err != nil {
		t.Fatal(err)
	}
}

// Cancelling a windowed run mid-search must end every window search
// promptly, return a never-worse stitch, and leak no window searchers or
// background synthesis goroutines — async and sync.
func TestPartitionParallelCancelNoGoroutineLeak(t *testing.T) {
	for _, async := range []bool{true, false} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for trial := 0; trial < 3; trial++ {
				c, ts := eagleSetup(t, int64(11+trial), 260)
				ctx, cancel := context.WithCancel(context.Background())
				opts := DefaultOptions()
				opts.Cost = TwoQubitCost()
				opts.Seed = int64(trial)
				opts.Async = async
				opts.Context = ctx
				done := make(chan *Result, 1)
				go func() { done <- PartitionParallel(c, ts, opts, 4) }()
				time.Sleep(50 * time.Millisecond)
				cancel()
				select {
				case res := <-done:
					if got, in := opts.Cost(res.Best), opts.Cost(c); got > in {
						t.Fatalf("cancelled run cost went up %g -> %g", in, got)
					}
					if res.BestError > opts.Epsilon {
						t.Fatalf("cancelled run error %g exceeds the budget %g", res.BestError, opts.Epsilon)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("cancelled partition-parallel run did not return")
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= base+2 {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					n := runtime.Stack(buf, true)
					t.Fatalf("goroutines leaked after cancelled runs: %d -> %d\n%s",
						base, runtime.NumGoroutine(), buf[:n])
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// Window searches run concurrently against one shared wall clock: a
// windowed run may overrun its budget only by one synthesis call, the
// drain of each window's in-flight job, and scheduling slack.
func TestPartitionParallelHonorsTimeBudget(t *testing.T) {
	const synthTime = 25 * time.Millisecond // eagleSetup's synthesis deadline
	const budget = 200 * time.Millisecond
	for _, async := range []bool{true, false} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			c, ts := eagleSetup(t, 8, 2000)
			opts := DefaultOptions()
			opts.Cost = TwoQubitCost()
			opts.Seed = 4
			opts.Async = async
			opts.Context = timeout(t, budget)
			start := time.Now()
			res := PartitionParallel(c, ts, opts, 2)
			elapsed := time.Since(start)
			if limit := budget + synthTime + 500*time.Millisecond; elapsed > limit {
				t.Fatalf("partition-parallel with a %v budget ran %v (limit %v)", budget, elapsed, limit)
			}
			if got, in := opts.Cost(res.Best), opts.Cost(c); got > in {
				t.Fatalf("cost went up %g -> %g", in, got)
			}
		})
	}
}
