package guoq

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/opt"
)

// nativeRandom builds a random circuit already native to the nam gate set.
func nativeRandom(t *testing.T, seed int64, gates int) *Circuit {
	t.Helper()
	return circuit.Random(4, gates, gateset.Nam.Gates, rand.New(rand.NewSource(seed)))
}

// Optimize is documented as a thin wrapper over Start+Wait: a seeded
// synchronous iteration-bounded run must be bit-for-bit identical through
// either entry point.
func TestOptimizeMatchesStartWait(t *testing.T) {
	c := nativeRandom(t, 3, 40)
	o := Options{
		GateSet:  "nam",
		Seed:     42,
		MaxIters: 300,
		Budget:   10 * time.Minute, // generous: MaxIters is the bound that fires
	}
	viaOptimize, resA, err := Optimize(c, o)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Start(context.Background(), c, o)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, resB, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := viaOptimize.WriteQASM(), viaSession.WriteQASM(); a != b {
		t.Fatalf("Optimize and Start/Wait diverged for equal seeds:\n%s\nvs\n%s", a, b)
	}
	if resA.After != resB.After || resA.Error != resB.Error ||
		resA.Iters != resB.Iters || resA.Accepted != resB.Accepted {
		t.Fatalf("result statistics diverged: %+v vs %+v", resA, resB)
	}
}

// The acceptance property of the anytime contract: cancelling a session
// mid-run yields a valid, ε-bounded circuit strictly no worse than the
// input, with accurate statistics.
func TestSessionCancelReturnsBestSoFar(t *testing.T) {
	c := nativeRandom(t, 7, 60)
	orig := c.Unitary()
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := Start(ctx, c, Options{
		GateSet:     "nam",
		Budget:      0, // no deadline: cancellation is the only way out
		Seed:        1,
		Async:       true,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	cancel()
	out, res, err := sess.Wait()
	if err != nil {
		t.Fatalf("cancellation must not be an error, got %v", err)
	}
	if out == nil || res == nil {
		t.Fatal("cancelled session returned no result")
	}
	if res.TwoQubitAfter > res.TwoQubitBefore {
		t.Fatalf("cancelled run returned a worse circuit: 2q %d -> %d",
			res.TwoQubitBefore, res.TwoQubitAfter)
	}
	if res.Error > 1e-8 {
		t.Fatalf("accumulated error %g exceeds the ε budget", res.Error)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), orig, 1e-8+1e-9) {
		t.Fatal("cancelled run broke ε-equivalence")
	}
	if res.Iters == 0 || res.Elapsed == 0 {
		t.Fatalf("cancelled run lost its statistics: %+v", res)
	}
	// Best after completion must agree with Wait.
	bc, br := sess.Best()
	if bc.WriteQASM() != out.WriteQASM() || br.After != res.After {
		t.Fatal("Best() after completion disagrees with Wait()")
	}
}

// Best must be safe to call concurrently with an active portfolio session
// (run under -race in CI) and every snapshot must already be valid:
// never worse than the input, with a bounded error.
func TestSessionBestConcurrent(t *testing.T) {
	c := nativeRandom(t, 9, 50)
	before := c.TwoQubitCount()
	sess, err := Start(context.Background(), c, Options{
		GateSet:     "nam",
		Budget:      300 * time.Millisecond,
		Seed:        2,
		Async:       true,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-sess.Done():
					return
				default:
				}
				snap, res := sess.Best()
				if snap == nil || res == nil {
					t.Error("Best() returned nil mid-run")
					return
				}
				if snap.TwoQubitCount() > before {
					t.Errorf("mid-run snapshot worse than input: %d > %d",
						snap.TwoQubitCount(), before)
					return
				}
				if res.Error > 1e-8 {
					t.Errorf("mid-run snapshot error %g exceeds budget", res.Error)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	out, res, err := sess.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.TwoQubitCount() > before {
		t.Fatalf("final circuit worse than input: %d -> %d", before, out.TwoQubitCount())
	}
	if res.Iters == 0 {
		t.Fatal("session did no work")
	}
}

// Cancelling mid-portfolio must wind down every worker goroutine — the
// session may not leak searchers, async resynthesis workers, or the
// monitoring goroutine.
func TestSessionCancelNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		c := nativeRandom(t, int64(20+trial), 50)
		ctx, cancel := context.WithCancel(context.Background())
		sess, err := Start(ctx, c, Options{
			GateSet:     "nam",
			Budget:      0,
			Seed:        int64(trial),
			Async:       true,
			Parallelism: 4,
		})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
		cancel()
		if _, _, err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Async synthesis calls drain on their own schedule (bounded by the
	// synthesizer's per-call time limit); poll instead of one fixed sleep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled sessions: %d -> %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The Events stream reports monotone best costs on improvement events and
// closes when the session ends.
func TestSessionEvents(t *testing.T) {
	c := NewCircuit(3)
	c.Append(H(0), H(0), CX(0, 1), CX(0, 1), CX(1, 2), T(2), Tdg(2), CX(1, 2))
	native, err := Translate(c, "nam")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Start(context.Background(), native, Options{
		GateSet: "nam",
		Budget:  250 * time.Millisecond,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, lastImproved := 0, -1.0
	for ev := range sess.Events() {
		events++
		if ev.Improved {
			if lastImproved >= 0 && ev.BestCost >= lastImproved {
				t.Fatalf("improvement event did not improve: %g then %g", lastImproved, ev.BestCost)
			}
			lastImproved = ev.BestCost
		}
		if ev.Rejected != ev.Iters-ev.Accepted {
			t.Fatalf("inconsistent counters: %+v", ev)
		}
	}
	if events == 0 {
		t.Fatal("no events observed on a redundant circuit")
	}
	if _, _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A partition-parallel session streams its window workers' events with
// consistent cumulative counters. Windows are stitched back only when they
// all finish, so no mid-run event carries a whole-circuit best: BestCost
// stays at the input's until the end, which also shows the run really
// windowed instead of falling back to the portfolio. The final result is
// never worse than the input and within the ε budget.
func TestSessionPartitionEvents(t *testing.T) {
	c := nativeRandom(t, 37, 600)   // two 300-gate windows at Parallelism 2
	inCost := opt.TwoQubitCost()(c) // nam's default objective
	sess, err := Start(context.Background(), c, Options{
		GateSet:           "nam",
		Budget:            2 * time.Second,
		Seed:              7,
		Parallelism:       2,
		PartitionParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for ev := range sess.Events() {
		events++
		if ev.Rejected != ev.Iters-ev.Accepted {
			t.Fatalf("inconsistent counters: %+v", ev)
		}
		if ev.BestCost != inCost {
			t.Fatalf("mid-run event reports best cost %g, want the input's %g (window results leaked before the stitch, or the run did not window)",
				ev.BestCost, inCost)
		}
	}
	if events == 0 {
		t.Fatal("no events observed from a partition-parallel session")
	}
	out, res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || res.TwoQubitAfter > res.TwoQubitBefore {
		t.Fatalf("partition-parallel worsened the objective: %d -> %d two-qubit gates",
			res.TwoQubitBefore, res.TwoQubitAfter)
	}
	if res.Error > 1e-8 {
		t.Fatalf("Error %g exceeds the default budget", res.Error)
	}
}

// Stop is cancel-then-Wait: it must end an unbounded session promptly and
// return the same result Wait does.
func TestSessionStop(t *testing.T) {
	c := nativeRandom(t, 31, 40)
	sess, err := Start(context.Background(), c, Options{
		GateSet: "nam",
		Budget:  0,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	var out *Circuit
	go func() {
		out, _, _ = sess.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not end the session")
	}
	if out == nil || out.TwoQubitCount() > c.TwoQubitCount() {
		t.Fatal("Stop returned a missing or worse circuit")
	}
}

// A session honors the ctx its caller already bounded with a deadline —
// Budget is only sugar for the same mechanism.
func TestSessionCtxDeadlineIsBudget(t *testing.T) {
	c := nativeRandom(t, 17, 40)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	sess, err := Start(ctx, c, Options{GateSet: "nam", Budget: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ctx deadline ignored: ran %v", elapsed)
	}
}

// A custom Cost drives the search and is reported as the "custom"
// objective; the never-worse guarantee holds against it.
func TestCustomCostFunc(t *testing.T) {
	c := nativeRandom(t, 23, 40)
	depth := CostFunc(func(c *Circuit) float64 { return float64(c.Depth()) })
	out, res, err := Optimize(c, Options{
		GateSet: "nam",
		Cost:    depth,
		Budget:  150 * time.Millisecond,
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != ObjectiveCustom {
		t.Fatalf("objective = %q, want %q", res.Objective, ObjectiveCustom)
	}
	if out.Depth() > c.Depth() {
		t.Fatalf("custom cost regressed: depth %d -> %d", c.Depth(), out.Depth())
	}
}

// Resume picks up where a stopped session left off, charging the second
// leg against the remaining ε budget so the composed bound still fits the
// original Epsilon (Thm 4.2 across runs).
func TestSessionResume(t *testing.T) {
	c := nativeRandom(t, 13, 60)
	orig := c.Unitary()
	const eps = 1e-8
	o := Options{GateSet: "nam", Epsilon: eps, Budget: 0, Seed: 1, Async: true}

	ctx, cancel := context.WithCancel(context.Background())
	sess, err := Start(ctx, c, o)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	cancel()
	mid, midRes, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := Resume(context.Background(), mid, midRes, Options{
		GateSet: "nam", Epsilon: eps, Budget: 150 * time.Millisecond, Seed: 2, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := resumed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, midGot := out.TwoQubitCount(), mid.TwoQubitCount(); got > midGot {
		t.Fatalf("resumed run regressed: 2q %d -> %d", midGot, got)
	}
	if total := midRes.Error + res.Error; total > eps {
		t.Fatalf("composed error %g exceeds the original budget %g", total, eps)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), orig, eps+1e-9) {
		t.Fatal("stop/resume broke end-to-end ε-equivalence")
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := Options{GateSet: "nam"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"missing gate set", Options{}, "GateSet"},
		{"unknown gate set", Options{GateSet: "bogus"}, "bogus"},
		{"unknown objective", Options{GateSet: "nam", Objective: "??"}, "objective"},
		{"cost and objective", Options{GateSet: "nam", Objective: MinimizeT,
			Cost: CostFunc(func(*Circuit) float64 { return 0 })}, "mutually exclusive"},
		{"negative epsilon", Options{GateSet: "nam", Epsilon: -1}, "Epsilon"},
		{"negative budget", Options{GateSet: "nam", Budget: -time.Second}, "Budget"},
		{"negative parallelism", Options{GateSet: "nam", Parallelism: -1}, "Parallelism"},
		{"negative max iters", Options{GateSet: "nam", MaxIters: -1}, "MaxIters"},
		{"partition without workers", Options{GateSet: "nam", PartitionParallel: true, Parallelism: 1}, "Parallelism ≥ 2"},
	}
	for _, tc := range cases {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.o)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The formerly silently-ignored combination now fails loudly through
	// Optimize and Start too.
	c := nativeRandom(t, 40, 20)
	if _, _, err := Optimize(c, Options{GateSet: "nam", PartitionParallel: true}); err == nil {
		t.Fatal("Optimize accepted PartitionParallel without Parallelism ≥ 2")
	}
	if _, err := Start(context.Background(), c, Options{GateSet: "nam", PartitionParallel: true}); err == nil {
		t.Fatal("Start accepted PartitionParallel without Parallelism ≥ 2")
	}
}
