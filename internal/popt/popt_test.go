package popt

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/verify"
)

// setup builds a circuit large enough to window at the test's WindowGates
// and the IBM Eagle transformation portfolio with short synthesis budgets.
func setup(t *testing.T, seed int64, gates int) (*circuit.Circuit, []opt.Transformation) {
	t.Helper()
	ts, err := opt.Instantiate(gateset.IBMEagle, opt.InstantiateOptions{
		EpsilonF:  1e-8,
		SynthTime: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.Random(6, gates, gateset.IBMEagle.Gates, rand.New(rand.NewSource(seed)))
	return c, ts
}

// small windows so a few-hundred-gate test circuit still partitions.
func testOptions(search opt.Options) Options {
	return Options{
		Search:         search,
		Workers:        4,
		WindowGates:    48,
		MinWindowGates: 12,
		RoundIters:     300,
		MaxRounds:      4,
	}
}

// The metamorphic contract: the stitched output must stay equivalent to the
// input within the summed per-window ε (plus verification tolerance), never
// cost more, and never overdraw the global budget — across seeds, with and
// without async resynthesis.
func TestFixpointMetamorphicEquivalence(t *testing.T) {
	for _, async := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			c, ts := setup(t, seed, 220)
			so := opt.DefaultOptions()
			so.Cost = opt.TwoQubitCost()
			so.Seed = seed * 17
			so.Async = async
			so.TimeBudget = 0
			res := Fixpoint(c, ts, testOptions(so))
			if res.Best == nil {
				t.Fatal("nil result")
			}
			if res.BestError > so.Epsilon {
				t.Fatalf("seed %d async=%v: BestError %g exceeds budget %g", seed, async, res.BestError, so.Epsilon)
			}
			if got, in := so.Cost(res.Best), so.Cost(c); got > in {
				t.Fatalf("seed %d async=%v: cost went up %g -> %g", seed, async, in, got)
			}
			if err := verify.MustBeEquivalent(c, res.Best, res.BestError+1e-6, seed); err != nil {
				t.Fatalf("seed %d async=%v: %v", seed, async, err)
			}
		}
	}
}

// Synchronous iteration-bounded runs must be bit-reproducible: window seeds
// derive deterministically from (seed, round, window) and stitching order
// is the window order, so concurrency cannot leak into the result.
func TestFixpointDeterminism(t *testing.T) {
	c, ts := setup(t, 5, 200)
	run := func() *circuit.Circuit {
		so := opt.DefaultOptions()
		so.Cost = opt.TwoQubitCost()
		so.Seed = 42
		so.Async = false
		so.TimeBudget = 0
		return Fixpoint(c, ts, testOptions(so)).Best
	}
	first := run()
	for i := 0; i < 2; i++ {
		if got := run(); !circuit.Equal(first, got) {
			t.Fatalf("equal-seed fixpoint runs diverged:\n%s\nvs\n%s", first, got)
		}
	}
}

// Per-round progress: every event reports as Worker 0 with nondecreasing
// cumulative counters, and improvement events carry a Best snapshot whose
// cost matches the reported BestCost — the contract the public Session's
// aggregator relies on to observe fixpoint convergence.
func TestFixpointEmitsRoundEvents(t *testing.T) {
	c, ts := setup(t, 6, 220)
	so := opt.DefaultOptions()
	so.Cost = opt.TwoQubitCost()
	so.Seed = 9
	so.Async = false
	so.TimeBudget = 0
	var events []opt.Event
	so.OnEvent = func(e opt.Event) { events = append(events, e) } // rounds are sequential: no locking needed
	res := Fixpoint(c, ts, testOptions(so))
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least one round plus the final", len(events))
	}
	prevIters := 0
	improvements := 0
	for i, e := range events {
		if e.Worker != 0 {
			t.Fatalf("event %d from worker %d, want 0", i, e.Worker)
		}
		if e.Iters < prevIters {
			t.Fatalf("event %d: cumulative iters went backwards %d -> %d", i, prevIters, e.Iters)
		}
		prevIters = e.Iters
		if e.Best != nil {
			improvements++
			if got := so.Cost(e.Best); got != e.BestCost {
				t.Fatalf("event %d: snapshot cost %g != reported BestCost %g", i, got, e.BestCost)
			}
		}
	}
	if improvements == 0 && so.Cost(res.Best) < so.Cost(c) {
		t.Fatal("the run improved but no event carried a Best snapshot")
	}
	last := events[len(events)-1]
	if last.Iters != res.Iters || last.BestErr != res.BestError {
		t.Fatalf("final event (%d iters, ε=%g) disagrees with the result (%d, %g)",
			last.Iters, last.BestErr, res.Iters, res.BestError)
	}
}

// Circuits with no room for two windows must fall back to a portfolio run
// rather than failing or returning the input untouched.
func TestFixpointSmallCircuitFallsBack(t *testing.T) {
	c, ts := setup(t, 7, 40)
	so := opt.DefaultOptions()
	so.Cost = opt.TwoQubitCost()
	so.Seed = 3
	so.Async = false
	so.TimeBudget = 0
	so.MaxIters = 400
	o := testOptions(so)
	o.WindowGates = 256 // swallows the whole circuit: no windows
	res := Fixpoint(c, ts, o)
	if res.Best == nil || res.Iters == 0 {
		t.Fatal("fallback did no work")
	}
	if got, in := so.Cost(res.Best), so.Cost(c); got > in {
		t.Fatalf("fallback cost went up %g -> %g", in, got)
	}
}

// Cancelling mid-run must end the round loop promptly and leak no window
// searchers or pool workers.
func TestFixpointCancelNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		c, ts := setup(t, int64(11+trial), 260)
		ctx, cancel := context.WithCancel(context.Background())
		so := opt.DefaultOptions()
		so.Cost = opt.TwoQubitCost()
		so.Seed = int64(trial)
		so.Async = true
		so.TimeBudget = 0
		so.Context = ctx
		o := testOptions(so)
		o.MaxRounds = 0 // run until cancelled
		done := make(chan *opt.Result, 1)
		go func() { done <- Fixpoint(c, ts, o) }()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case res := <-done:
			if res.Best == nil {
				t.Fatal("cancelled run returned nil")
			}
			if got, in := so.Cost(res.Best), so.Cost(c); got > in {
				t.Fatalf("cancelled run cost went up %g -> %g", in, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled fixpoint did not return")
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
			t.Fatalf("goroutines leaked after cancelled fixpoint runs: %d -> %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Windows queued behind the worker semaphore must share the run's wall
// clock, not each start with a fresh copy of it: with 2 workers and dozens
// of time-bound windows, the run may overrun its budget only by one
// synchronous synthesis call (the deadline is checked between iterations)
// plus scheduling slack.
func TestFixpointHonorsTimeBudget(t *testing.T) {
	const synthTime = 25 * time.Millisecond // setup's synthesis deadline
	c, ts := setup(t, 8, 2000)
	so := opt.DefaultOptions()
	so.Cost = opt.TwoQubitCost()
	so.Seed = 4
	so.Async = false
	so.TimeBudget = 200 * time.Millisecond
	o := testOptions(so)
	o.Workers = 2
	o.RoundIters = 1 << 30 // windows end on the clock, not on iterations
	o.MaxRounds = 0
	start := time.Now()
	res := Fixpoint(c, ts, o)
	elapsed := time.Since(start)
	if limit := so.TimeBudget + synthTime + 500*time.Millisecond; elapsed > limit {
		t.Fatalf("fixpoint with a %v budget ran %v (limit %v)", so.TimeBudget, elapsed, limit)
	}
	if got, in := so.Cost(res.Best), so.Cost(c); got > in {
		t.Fatalf("cost went up %g -> %g", in, got)
	}
}

// fakeUpstream is a canned remote coordinator: it offers a fixed solution
// when it beats the publisher and records what was published to it.
// Fixpoint exchanges from its calling goroutine, so it needs no lock.
type fakeUpstream struct {
	offer     *circuit.Circuit
	offerErr  float64
	offerCost float64
	published int
	lastCost  float64
}

func (f *fakeUpstream) Exchange(best *circuit.Circuit, bestErr, bestCost float64) (*circuit.Circuit, float64, bool) {
	f.published++
	f.lastCost = bestCost
	if f.offer != nil && f.offerCost < bestCost {
		return f.offer, f.offerErr, true
	}
	return nil, 0, false
}

// A windowed fixpoint run publishes its stitched result to an upstream
// exchanger and adopts a strictly better remote solution with that
// solution's own ε, so -fixpoint runs take part in a distributed session
// (and fill guoqd's result cache) instead of dropping the Exchanger.
func TestFixpointUpstreamExchanger(t *testing.T) {
	c, ts := setup(t, 14, 220) // large enough to window
	so := opt.DefaultOptions()
	so.Cost = opt.TwoQubitCost()
	so.Seed = 5
	so.Async = false
	so.TimeBudget = 0

	up := &fakeUpstream{}
	so.Exchanger = up
	res := Fixpoint(c, ts, testOptions(so))
	if up.published == 0 {
		t.Fatal("fixpoint never published to the upstream coordinator")
	}
	if got := so.Cost(res.Best); up.lastCost != got {
		t.Fatalf("published cost %g does not match the returned result's %g", up.lastCost, got)
	}

	ahead := &fakeUpstream{offer: circuit.New(c.NumQubits), offerErr: 3e-9, offerCost: 0}
	so.Exchanger = ahead
	res = Fixpoint(c, ts, testOptions(so))
	if got := so.Cost(res.Best); got != 0 {
		t.Fatalf("fixpoint did not adopt the upstream offer: cost %g, want 0", got)
	}
	if res.BestError != 3e-9 || res.Migrations != 1 {
		t.Fatalf("adoption gave BestError %g and %d migrations, want 3e-9 and 1", res.BestError, res.Migrations)
	}
}
