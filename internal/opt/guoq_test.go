package opt

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// redundantCircuit builds a native nam circuit with obvious redundancy.
func redundantCircuit() *circuit.Circuit {
	c := circuit.New(3)
	c.Append(
		gate.NewH(0), gate.NewH(0),
		gate.NewCX(0, 1), gate.NewCX(0, 1),
		gate.NewRz(0.3, 2), gate.NewRz(-0.3, 2),
		gate.NewCX(1, 2),
		gate.NewX(2), gate.NewX(2),
		gate.NewCX(1, 2),
		gate.NewRz(0.5, 0),
		gate.NewCX(0, 1),
		gate.NewRz(-0.5, 0),
	)
	return c
}

// timeout returns a context that ends after d: the wall-clock bound of a
// timed test run. It is cancelled when the test ends.
func timeout(tb testing.TB, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	tb.Cleanup(cancel)
	return ctx
}

func namTransformations(t *testing.T) []Transformation {
	t.Helper()
	ts, err := Instantiate(gateset.Nam, InstantiateOptions{
		EpsilonF:  1e-8,
		SynthTime: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestGUOQReducesRedundancy(t *testing.T) {
	c := redundantCircuit()
	orig := c.Unitary()
	opts := DefaultOptions()
	opts.Cost = TwoQubitCost()
	opts.MaxIters = 3000
	opts.Seed = 7
	res := GUOQ(c, FilterFast(namTransformations(t)), opts)
	if res.Best.TwoQubitCount() >= c.TwoQubitCount() {
		t.Fatalf("2q count %d -> %d: no reduction", c.TwoQubitCount(), res.Best.TwoQubitCount())
	}
	if !linalg.EqualUpToPhase(res.Best.Unitary(), orig, 1e-8) {
		t.Fatal("GUOQ broke semantics")
	}
	// The obvious cancellations leave just cx(0,1) and possibly the rz pair.
	if res.Best.TwoQubitCount() > 1 {
		t.Fatalf("expected ≤1 two-qubit gates, got %d:\n%v",
			res.Best.TwoQubitCount(), res.Best)
	}
}

// TestGUOQCorrectnessTheorem53 is the Thm 5.3 property: the result of
// guoq(C, ε_f, T) is always ε_f-equivalent to C, for random circuits and
// with resynthesis enabled.
func TestGUOQCorrectnessTheorem53(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := namTransformations(t)
	for trial := 0; trial < 4; trial++ {
		c := circuit.Random(4, 24, gateset.Nam.Gates, rng)
		orig := c.Unitary()
		opts := DefaultOptions()
		opts.Epsilon = 1e-8
		opts.MaxIters = 120
		opts.ResynthProb = 0.2 // exercise resynthesis heavily
		opts.Seed = int64(trial)
		res := GUOQ(c, ts, opts)
		if res.BestError > opts.Epsilon {
			t.Fatalf("trial %d: accumulated error %g exceeds budget", trial, res.BestError)
		}
		if d := linalg.HSDistance(res.Best.Unitary(), orig); d > opts.Epsilon+1e-9 {
			t.Fatalf("trial %d: final distance %g exceeds ε_f (Thm 5.3 violated)", trial, d)
		}
	}
}

func TestGUOQNeverWorseThanInput(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ts := namTransformations(t)
	for trial := 0; trial < 5; trial++ {
		c := circuit.Random(4, 30, gateset.Nam.Gates, rng)
		opts := DefaultOptions()
		opts.MaxIters = 150
		opts.Seed = int64(trial)
		res := GUOQ(c, ts, opts)
		if res.Best.TwoQubitCount() > c.TwoQubitCount() {
			t.Fatalf("trial %d: 2q count increased %d -> %d",
				trial, c.TwoQubitCount(), res.Best.TwoQubitCount())
		}
	}
}

func TestGUOQDeterministicWithSeed(t *testing.T) {
	c := redundantCircuit()
	ts := FilterFast(namTransformations(t))
	opts := DefaultOptions()
	opts.MaxIters = 500
	opts.Seed = 99
	a := GUOQ(c, ts, opts)
	b := GUOQ(c, ts, opts)
	if !circuit.Equal(a.Best, b.Best) {
		t.Fatal("synchronous GUOQ is not deterministic for equal seeds")
	}
}

func TestGUOQAsyncSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ts := namTransformations(t)
	c := circuit.Random(4, 24, gateset.Nam.Gates, rng)
	orig := c.Unitary()
	opts := DefaultOptions()
	opts.Async = true
	opts.Context = timeout(t, 250*time.Millisecond)
	opts.ResynthProb = 0.3
	opts.Seed = 5
	res := GUOQ(c, ts, opts)
	if d := linalg.HSDistance(res.Best.Unitary(), orig); d > opts.Epsilon+1e-9 {
		t.Fatalf("async run broke the error budget: %g", d)
	}
}

func TestGUOQZeroEpsilonBlocksResynthOnly(t *testing.T) {
	// With ε_f = 0, resynthesis with a nonzero declared ε must never run;
	// rules still apply.
	c := redundantCircuit()
	orig := c.Unitary()
	ts := namTransformations(t)
	opts := DefaultOptions()
	opts.Epsilon = 0
	opts.MaxIters = 800
	opts.Seed = 3
	res := GUOQ(c, ts, opts)
	if res.BestError != 0 {
		t.Fatalf("ε_f=0 run accumulated error %g", res.BestError)
	}
	if !linalg.EqualUpToPhase(res.Best.Unitary(), orig, 1e-9) {
		t.Fatal("ε_f=0 run must be exactly equivalent")
	}
}

func TestGUOQTimeBudgetHonored(t *testing.T) {
	c := redundantCircuit()
	ts := namTransformations(t)
	opts := DefaultOptions()
	opts.Context = timeout(t, 50*time.Millisecond)
	start := time.Now()
	GUOQ(c, ts, opts)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("run took %v with a 50ms budget", elapsed)
	}
}

func TestGUOQOnImproveMonotone(t *testing.T) {
	c := redundantCircuit()
	ts := FilterFast(namTransformations(t))
	opts := DefaultOptions()
	opts.MaxIters = 1000
	opts.Seed = 1
	var costs []float64
	var elapsed []time.Duration
	opts.OnEvent = func(e Event) {
		if e.Best != nil {
			costs = append(costs, opts.Cost(e.Best))
			elapsed = append(elapsed, e.Elapsed)
		}
	}
	opts.Cost = TwoQubitCost()
	GUOQ(c, ts, opts)
	for i := 1; i < len(costs); i++ {
		if costs[i] >= costs[i-1] {
			t.Fatalf("improvement events not strictly improving: %v", costs)
		}
		if elapsed[i] < elapsed[i-1] {
			t.Fatalf("improvement events out of time order: %v", elapsed)
		}
	}
	if len(costs) == 0 {
		t.Fatal("no improvement event on a redundant circuit")
	}
}

func TestCosts(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.NewT(0), gate.NewCX(0, 1))
	if got := TCost()(c); math.Abs(got-(2+1+0.002)) > 1e-9 {
		t.Errorf("TCost = %g", got)
	}
	if got := TwoQubitCost()(c); math.Abs(got-(1+0.002)) > 1e-9 {
		t.Errorf("TwoQubitCost = %g", got)
	}
	if got := GateCountCost()(c); got != 2 {
		t.Errorf("GateCountCost = %g", got)
	}
	f := FidelityCost(gateset.IBMWashington)
	if f(c) <= 0 {
		t.Error("FidelityCost should be positive for a nonempty circuit")
	}
}

func TestSeqVariants(t *testing.T) {
	c := redundantCircuit()
	orig := c.Unitary()
	ts := namTransformations(t)
	for _, rewriteFirst := range []bool{true, false} {
		opts := DefaultOptions()
		opts.Context = timeout(t, 200*time.Millisecond)
		opts.Seed = 2
		res := GUOQSeq(c, ts, opts, rewriteFirst)
		if d := linalg.HSDistance(res.Best.Unitary(), orig); d > 1e-8+1e-9 {
			t.Fatalf("seq(rewriteFirst=%v) broke the budget: %g", rewriteFirst, d)
		}
		if res.Best.TwoQubitCount() > c.TwoQubitCount() {
			t.Fatalf("seq made the circuit worse")
		}
	}
}

// clockProbe is an inert transformation that records when the search
// first and last called it.
type clockProbe struct {
	slow        bool
	first, last time.Time
}

func (p *clockProbe) Name() string     { return "probe" }
func (p *clockProbe) Slow() bool       { return p.slow }
func (p *clockProbe) Epsilon() float64 { return 0 }
func (p *clockProbe) Apply(c *circuit.Circuit, _ float64, _ *rand.Rand) (*circuit.Circuit, float64, bool) {
	now := time.Now()
	if p.first.IsZero() {
		p.first = now
	}
	p.last = now
	return c, 0, false
}

// GUOQSeq gives its first phase half of the time to the context's deadline
// and its second phase the rest; without a deadline, MaxIters bounds each
// phase on its own.
func TestSeqSplitsDeadline(t *testing.T) {
	const budget = 400 * time.Millisecond
	fast, slow := &clockProbe{}, &clockProbe{slow: true}
	opts := DefaultOptions()
	start := time.Now()
	opts.Context = timeout(t, budget)
	GUOQSeq(redundantCircuit(), []Transformation{fast, slow}, opts, true)
	end := time.Now()
	if fast.last.IsZero() || slow.first.IsZero() {
		t.Fatal("a phase never ran")
	}
	// The first phase's deadline is at least budget/2 after start; it must
	// end there, not run on toward the whole budget.
	if first := slow.first.Sub(start); first < budget/2 || first >= 7*budget/8 {
		t.Fatalf("second phase started %v after the start, want about %v", first, budget/2)
	}
	if fast.last.After(slow.first) {
		t.Fatal("the phases overlap")
	}
	if total := end.Sub(start); total < budget || total >= 2*budget {
		t.Fatalf("run took %v, want about %v", total, budget)
	}

	opts = DefaultOptions()
	opts.MaxIters = 50
	if got := GUOQSeq(redundantCircuit(), []Transformation{&clockProbe{}, &clockProbe{slow: true}}, opts, true).Iters; got != 100 {
		t.Fatalf("without a deadline the phases ran %d iterations, want 2×50", got)
	}
}

func TestBeamVariant(t *testing.T) {
	c := redundantCircuit()
	orig := c.Unitary()
	ts := FilterFast(namTransformations(t))
	opts := DefaultOptions()
	opts.Context = timeout(t, 300*time.Millisecond)
	opts.Seed = 4
	res := Beam(c, ts, opts, 16)
	if !linalg.EqualUpToPhase(res.Best.Unitary(), orig, 1e-8) {
		t.Fatal("beam broke semantics")
	}
	if res.Best.TwoQubitCount() > c.TwoQubitCount() {
		t.Fatal("beam made the circuit worse")
	}
}

func TestInstantiatePerGateSet(t *testing.T) {
	for _, gs := range gateset.All() {
		ts, err := Instantiate(gs, InstantiateOptions{EpsilonF: 1e-8})
		if err != nil {
			t.Fatalf("%s: %v", gs.Name, err)
		}
		var fast, slow int
		for _, tr := range ts {
			if tr.Slow() {
				slow++
			} else {
				fast++
			}
		}
		if fast < 3 || slow != 3 {
			t.Fatalf("%s: fast=%d slow=%d", gs.Name, fast, slow)
		}
	}
}

func TestFilterPartition(t *testing.T) {
	ts := namTransformations(t)
	if len(FilterFast(ts))+len(FilterSlow(ts)) != len(ts) {
		t.Fatal("filters do not partition the set")
	}
}
