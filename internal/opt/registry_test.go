package opt

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/synth"
)

// TestDefaultRegistryMatchesInstantiate pins the refactoring invariant: the
// default registry builds exactly the transformation sequence the
// historical hardcoded construction built — same entries, same order —
// for every built-in gate set. Order matters: the search loop indexes
// transformations with rng draws, so reordering would silently change
// every seeded run.
func TestDefaultRegistryMatchesInstantiate(t *testing.T) {
	for _, gs := range gateset.All() {
		io := InstantiateOptions{EpsilonF: 1e-8, SynthTime: 10 * time.Millisecond, WithPhaseFold: true}
		want, err := Instantiate(gs, io)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DefaultRegistry().Build(gs, io)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: registry built %d transformations, instantiate %d", gs.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].Name() != want[i].Name() || got[i].Slow() != want[i].Slow() || got[i].Epsilon() != want[i].Epsilon() {
				t.Fatalf("%s: transformation %d differs: registry %s, instantiate %s", gs.Name, i, got[i].Name(), want[i].Name())
			}
		}
	}
}

// TestRegistryDefaultBitIdentical runs the same seeded synchronous search
// through the direct instantiation and through the default registry: the
// outputs must be bit-for-bit equal (the "registry refactor changed
// nothing" guarantee for default runs).
func TestRegistryDefaultBitIdentical(t *testing.T) {
	gs := gateset.Nam
	io := InstantiateOptions{EpsilonF: 1e-8, SynthTime: 10 * time.Millisecond, WithPhaseFold: true}
	c := circuit.Random(4, 40, gs.Gates, rand.New(rand.NewSource(3)))

	run := func(ts []Transformation) *circuit.Circuit {
		opts := DefaultOptions()
		opts.Cost = TwoQubitCost()
		opts.TimeBudget = 10 * time.Second // generous: MaxIters ends the run
		opts.MaxIters = 400
		opts.Seed = 11
		opts.WarmStart = true
		return GUOQ(c, ts, opts).Best
	}
	direct, err := Instantiate(gs, io)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := DefaultRegistry().Build(gs, io)
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(direct), run(viaRegistry)
	if !circuit.Equal(a, b) {
		t.Fatalf("seeded outputs diverge between direct instantiation (%d gates) and registry build (%d gates)", a.Len(), b.Len())
	}
}

// TestRegistryWithAppends checks provider composition order and that With
// does not mutate the receiver.
func TestRegistryWithAppends(t *testing.T) {
	gs := gateset.Nam
	marker := &CleanupTransformation{}
	base := NewRegistry(Static(&CleanupTransformation{}))
	ext := base.With(Static(marker))
	ts, err := ext.Build(gs, InstantiateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[1] != Transformation(marker) {
		t.Fatalf("extended registry built %d transformations, want marker last", len(ts))
	}
	if ts0, _ := base.Build(gs, InstantiateOptions{}); len(ts0) != 1 {
		t.Fatalf("With mutated the receiver: base now builds %d transformations", len(ts0))
	}
}

// ---------------------------------------------------------------------------

// dropTinyRz is a user-style circuit synthesizer: it removes near-identity
// rz gates from the subcircuit, reporting the measured Hilbert–Schmidt
// distance as its consumed ε. Proposals strictly reduce gate count, so the
// greedy acceptance rule always takes them — which makes the run's total
// BestError exactly the sum of the consumed values of applied proposals.
type dropTinyRz struct {
	threshold float64
	calls     atomic.Int64
	proposals atomic.Int64
	overClaim float64 // when > 0, claim this instead of the measured ε
}

func (d *dropTinyRz) Name() string { return "drop-tiny-rz" }

func (d *dropTinyRz) Synthesize(_ context.Context, sub *circuit.Circuit, eps float64) (*circuit.Circuit, float64, error) {
	d.calls.Add(1)
	out := circuit.New(sub.NumQubits)
	dropped := false
	for _, g := range sub.Gates {
		if g.Name == gate.Rz && g.Params[0] != 0 && g.Params[0] < d.threshold && g.Params[0] > 0 {
			dropped = true
			continue
		}
		out.Gates = append(out.Gates, g.Clone())
	}
	if !dropped {
		return nil, 0, synth.ErrNoSolution
	}
	consumed := linalg.HSDistance(sub.Unitary(), out.Unitary())
	if consumed > eps {
		return nil, 0, synth.ErrNoSolution
	}
	if d.overClaim > 0 {
		consumed = d.overClaim
	}
	d.proposals.Add(1)
	return out, consumed, nil
}

// plantedCircuit builds a nam-native circuit with tiny rz gates planted
// between entangling layers — removable only approximately.
func plantedCircuit(tiny float64, n int) *circuit.Circuit {
	c := circuit.New(3)
	for i := 0; i < n; i++ {
		q := i % 3
		c.Append(gate.NewCX(q, (q+1)%3))
		c.Append(gate.NewRz(tiny, q))
		c.Append(gate.NewH((q + 2) % 3))
	}
	return c
}

// TestCircuitSynthesizerDebitsBudget verifies the ε accounting of a
// user-supplied synthesizer end to end at the search-loop level: with the
// custom synthesizer as the only transformation, the run's BestError is
// positive, is bounded by the budget, and the output is equivalent to the
// input within it.
func TestCircuitSynthesizerDebitsBudget(t *testing.T) {
	const epsF = 1e-2
	c := plantedCircuit(1e-3, 6)
	syn := &dropTinyRz{threshold: 1e-2}
	ts := []Transformation{&CircuitResynthTransformation{
		Synth:       syn,
		MaxQubits:   3,
		DeclaredEps: epsF,
		GateSet:     gateset.Nam,
	}}
	opts := DefaultOptions()
	opts.Epsilon = epsF
	opts.Cost = TwoQubitCost()
	opts.TimeBudget = 10 * time.Second
	opts.MaxIters = 300
	opts.Seed = 5
	res := GUOQ(c, ts, opts)

	if syn.calls.Load() == 0 {
		t.Fatal("custom synthesizer was never invoked")
	}
	if syn.proposals.Load() == 0 {
		t.Fatal("custom synthesizer never proposed a replacement")
	}
	if res.BestError <= 0 {
		t.Fatalf("BestError = %g: consumed ε was not debited", res.BestError)
	}
	if res.BestError > epsF {
		t.Fatalf("BestError %g exceeds the budget %g", res.BestError, epsF)
	}
	if res.Best.Len() >= c.Len() {
		t.Fatalf("no reduction: %d -> %d gates", c.Len(), res.Best.Len())
	}
	if d := linalg.HSDistance(c.Unitary(), res.Best.Unitary()); d > res.BestError+1e-9 {
		t.Fatalf("true distance %g exceeds the accounted bound %g", d, res.BestError)
	}
}

// TestOverReportingSynthesizerRejected pins the admission rule: a
// synthesizer claiming more ε than the allowance is rejected outright — no
// replacement is adopted and nothing is debited.
func TestOverReportingSynthesizerRejected(t *testing.T) {
	const epsF = 1e-2
	c := plantedCircuit(1e-3, 6)
	syn := &dropTinyRz{threshold: 1e-2, overClaim: 2 * epsF}
	ts := []Transformation{&CircuitResynthTransformation{
		Synth:       syn,
		MaxQubits:   3,
		DeclaredEps: epsF,
		GateSet:     gateset.Nam,
	}}
	opts := DefaultOptions()
	opts.Epsilon = epsF
	opts.Cost = TwoQubitCost()
	opts.TimeBudget = 10 * time.Second
	opts.MaxIters = 200
	opts.Seed = 5
	res := GUOQ(c, ts, opts)

	if syn.proposals.Load() == 0 {
		t.Fatal("synthesizer never proposed (test exercised nothing)")
	}
	if res.Accepted != 0 {
		t.Fatalf("%d over-reporting proposals were accepted", res.Accepted)
	}
	if res.BestError != 0 {
		t.Fatalf("BestError = %g, want 0: over-reported ε must not be debited", res.BestError)
	}
	if !circuit.Equal(res.Best, c) {
		t.Fatal("over-reporting synthesizer modified the circuit")
	}
}

// TestCircuitSynthesizerNonNativeRejected: replacements outside the target
// set are discarded even when exact.
func TestCircuitSynthesizerNonNativeRejected(t *testing.T) {
	c := plantedCircuit(1e-3, 6)
	swapIn := synthFunc{
		name: "alien",
		fn: func(_ context.Context, sub *circuit.Circuit, _ float64) (*circuit.Circuit, float64, error) {
			out := circuit.New(sub.NumQubits)
			for _, g := range sub.Gates {
				out.Gates = append(out.Gates, g.Clone())
			}
			// An exact rewrite, but through a gate foreign to nam.
			out.Append(gate.NewCZ(0, 1), gate.NewCZ(0, 1))
			return out, 0, nil
		},
	}
	ts := []Transformation{&CircuitResynthTransformation{
		Synth: swapIn, MaxQubits: 3, DeclaredEps: 1e-2, GateSet: gateset.Nam,
	}}
	opts := DefaultOptions()
	opts.Epsilon = 1e-2
	opts.Cost = TwoQubitCost()
	opts.TimeBudget = 10 * time.Second
	opts.MaxIters = 50
	opts.Seed = 7
	res := GUOQ(c, ts, opts)
	if res.Accepted != 0 {
		t.Fatalf("%d non-native replacements accepted", res.Accepted)
	}
	if !gateset.Nam.IsNative(res.Best) {
		t.Fatal("output left the target gate set")
	}
}

type synthFunc struct {
	name string
	fn   func(ctx context.Context, sub *circuit.Circuit, eps float64) (*circuit.Circuit, float64, error)
}

func (s synthFunc) Name() string { return s.name }
func (s synthFunc) Synthesize(ctx context.Context, sub *circuit.Circuit, eps float64) (*circuit.Circuit, float64, error) {
	return s.fn(ctx, sub, eps)
}

// TestInstantiateCustomSets: custom sets without rule libraries
// instantiate (τ_0 passes + resynthesis), and finite custom sets whose
// basis cannot carry the Clifford+T synthesizer's output skip built-in
// resynthesis instead of splicing non-native gates.
func TestInstantiateCustomSets(t *testing.T) {
	cont, err := gateset.New("reg-test-cont", "superconducting", gate.Rz, gate.SX, gate.X, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Instantiate(cont, InstantiateOptions{EpsilonF: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, tr := range ts {
		if tr.Slow() {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("continuous custom set got no resynthesis")
	}

	fin, err := gateset.New("reg-test-fin", "fault tolerant", gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	ts, err = Instantiate(fin, InstantiateOptions{EpsilonF: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		if tr.Slow() {
			t.Fatalf("finite custom set without the Clifford+T vocabulary got resynthesis %s", tr.Name())
		}
	}
}

// TestRegistryProviderFilter: a provider can filter by gate set, extending
// the build for its target and leaving every other set untouched.
func TestRegistryProviderFilter(t *testing.T) {
	marker := &CleanupTransformation{}
	reg := DefaultRegistry().With(func(gs *gateset.GateSet, _ InstantiateOptions) ([]Transformation, error) {
		if gs.Name != "reg-test-filter" {
			return nil, nil
		}
		return []Transformation{marker}, nil
	})
	other, err := reg.Build(gateset.Nam, InstantiateOptions{EpsilonF: 1e-8, SynthTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range other {
		if tr == Transformation(marker) {
			t.Fatal("filtered provider leaked into another gate set")
		}
	}
	gs, err := gateset.New("reg-test-filter", "", gate.Rz, gate.H, gate.X, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := reg.Build(gs, InstantiateOptions{EpsilonF: 1e-8, SynthTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if ts[len(ts)-1] != Transformation(marker) {
		t.Fatal("provider's transformation is not last in the build")
	}
}

// TestResynthContextCancelPrompt: a cancelled context makes the built-in
// resynthesis transformation return promptly even when the synthesizer's
// own deadline is far away — the satellite fix for cancellation draining
// a full synth deadline.
func TestResynthContextCancelPrompt(t *testing.T) {
	gs := gateset.IBMQ20
	ts, err := Instantiate(gs, InstantiateOptions{EpsilonF: 1e-8, SynthTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var resynth ContextApplier
	for _, tr := range ts {
		if tr.Slow() {
			resynth = tr.(ContextApplier)
			break
		}
	}
	c := circuit.Random(3, 30, gs.Gates, rand.New(rand.NewSource(9)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, ok := resynth.ApplyContext(ctx, c, 1e-8, rand.New(rand.NewSource(1)))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled resynthesis took %v (synth deadline drained)", elapsed)
	}
	if ok {
		t.Log("note: cancelled application still returned a result (allowed if it finished before noticing)")
	}
}
