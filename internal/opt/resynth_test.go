package opt

import (
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

// resynthFor returns the built-in resynthesis transformation of gs at ε
// 1e-8, with a synthesis deadline no call reaches.
func resynthFor(t *testing.T, gs *gateset.GateSet) *ResynthTransformation {
	t.Helper()
	ts, err := Instantiate(gs, InstantiateOptions{EpsilonF: 1e-8, SynthTime: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return FilterSlow(ts)[0].(*ResynthTransformation)
}

// TestResynthNeverAddsTwoQubitGates: numeric resynthesis takes the
// replaced block's two-qubit count as its ceiling, so no Apply returns a
// circuit with more two-qubit gates than its input, on either kind of
// native entangler. The inputs are random circuits over the test vocabulary
// (ccx, cp, swap, …) translated into the set, whose blocks, like those of
// the suite, are often already minimal in CX: an unbounded search raised
// the count in 3 of 40 ibm-eagle calls and 12 of 40 ionq ones.
func TestResynthNeverAddsTwoQubitGates(t *testing.T) {
	for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.IonQ} {
		rt := resynthFor(t, gs)
		rng := rand.New(rand.NewSource(1))
		applied := 0
		for i := 0; i < 40; i++ {
			in := gateset.MustTranslate(circuit.Random(4, 12, circuit.DefaultTestVocab, rng), gs)
			out, eps, ok := rt.Apply(in, rt.DeclaredEps, rng)
			if !ok {
				continue
			}
			applied++
			if got, was := out.TwoQubitCount(), in.TwoQubitCount(); got > was {
				t.Fatalf("%s call %d: resynthesis raised the two-qubit count from %d to %d", gs.Name, i, was, got)
			}
			if d := linalg.HSDistance(in.Unitary(), out.Unitary()); d > eps+1e-9 {
				t.Fatalf("%s call %d: distance %g exceeds the charged ε %g", gs.Name, i, d, eps)
			}
		}
		if applied == 0 {
			t.Fatalf("%s: no resynthesis call applied", gs.Name)
		}
	}
}

// plainSynth implements only synth.Synthesizer: it synthesizes with the
// numeric search and then appends a cancelling CX pair, so every result
// has two more two-qubit gates than the search found.
type plainSynth struct {
	inner *numeric.Synthesizer
	calls int
}

func (p *plainSynth) Name() string { return "plain" }

func (p *plainSynth) Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	p.calls++
	c, err := p.inner.Synthesize(target, numQubits, eps)
	if err != nil {
		return nil, err
	}
	c.Append(gate.NewCX(0, 1), gate.NewCX(0, 1))
	return c, nil
}

// TestResynthCallsPlainSynthesizerUnbounded: a synthesizer without
// SynthesizeBounded gets the unbounded call it always got, and its result
// may hold more two-qubit gates than the block it replaces. User and
// Clifford+T synthesizers keep their behaviour.
func TestResynthCallsPlainSynthesizerUnbounded(t *testing.T) {
	ns := numeric.New(gateset.IBMEagle)
	ns.MaxTime = time.Minute
	ps := &plainSynth{inner: ns}
	rt := &ResynthTransformation{Synth: ps, MaxQubits: 2, DeclaredEps: 1e-8}
	rng := rand.New(rand.NewSource(2))
	raised := false
	for i := 0; i < 20 && !raised; i++ {
		in := circuit.Random(3, 12, gateset.IBMEagle.Gates, rng)
		if out, _, ok := rt.Apply(in, rt.DeclaredEps, rng); ok && out.TwoQubitCount() > in.TwoQubitCount() {
			raised = true
		}
	}
	if ps.calls == 0 {
		t.Fatal("the plain synthesizer was never called")
	}
	if !raised {
		t.Fatalf("no call of %d kept a result with more two-qubit gates than its input", ps.calls)
	}
}
