package numeric

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

func TestTemplateUnitaryMatchesInstantiate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tpl := NewTemplate(2, [][2]int{{0, 1}, {0, 1}})
	params := make([]float64, tpl.NumParams())
	for i := range params {
		params[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	u := tpl.Unitary(params)
	c := tpl.Instantiate(params)
	if !linalg.EqualUpToPhase(c.Unitary(), u, 1e-9) {
		t.Fatal("Instantiate disagrees with Unitary")
	}
}

// TestSweepMonotone: every angle update maximizes the overlap along its
// coordinate, so no sweep may lower |τ|, on 2 qubits and on 3.
func TestSweepMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, st := range []struct {
		n, gates int
		pairs    [][2]int
	}{
		{2, 10, [][2]int{{0, 1}, {0, 1}, {0, 1}}},
		{3, 24, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}, {1, 2}, {0, 2}}},
	} {
		target := circuit.Random(st.n, st.gates, circuit.DefaultTestVocab, rng).Unitary()
		adj := linalg.Adjoint(target)
		tpl := NewTemplate(st.n, st.pairs)
		params := make([]float64, tpl.NumParams())
		for i := range params {
			params[i] = rng.Float64()*2*math.Pi - math.Pi
		}
		prev := tpl.overlap(adj, params)
		for s := 0; s < 10; s++ {
			tau := tpl.sweep(adj, params)
			if tau < prev-1e-9 {
				t.Fatalf("%d qubits, sweep %d decreased overlap: %g -> %g", st.n, s, prev, tau)
			}
			prev = tau
		}
	}
}

func TestSynthesize1Q(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(gateset.IBMQ20)
	for trial := 0; trial < 20; trial++ {
		c := circuit.Random(1, 6, []gate.Name{gate.H, gate.T, gate.S, gate.X, gate.Rz, gate.Rx}, rng)
		target := c.Unitary()
		out, err := s.Synthesize(target, 1, 1e-8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Len() > 1 {
			t.Fatalf("1q synthesis emitted %d gates, want ≤ 1", out.Len())
		}
		if d := linalg.HSDistance(out.Unitary(), target); d > 1e-8 {
			t.Fatalf("trial %d: distance %g", trial, d)
		}
	}
}

func TestSynthesize2QExactCX(t *testing.T) {
	// A plain CX must synthesize with exactly one CX.
	s := New(gateset.IBMQ20)
	target := gate.Matrix(gate.NewCX(0, 1))
	out, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TwoQubitCount(); got != 1 {
		t.Fatalf("CX synthesized with %d two-qubit gates:\n%v", got, out)
	}
	if d := linalg.HSDistance(out.Unitary(), target); d > 1e-8 {
		t.Fatalf("distance %g", d)
	}
}

func TestSynthesize2QRandom(t *testing.T) {
	// Random 2-qubit unitaries need at most 3 CX.
	rng := rand.New(rand.NewSource(4))
	s := New(gateset.IBMEagle)
	for trial := 0; trial < 5; trial++ {
		c := circuit.Random(2, 12, circuit.DefaultTestVocab, rng)
		target := c.Unitary()
		out, err := s.Synthesize(target, 2, 1e-8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := out.TwoQubitCount(); got > 3 {
			t.Fatalf("trial %d: %d two-qubit gates, want ≤ 3", trial, got)
		}
		if d := linalg.HSDistance(out.Unitary(), target); d > 1e-7 {
			t.Fatalf("trial %d: distance %g", trial, d)
		}
		if !gateset.IBMEagle.IsNative(out) {
			t.Fatalf("trial %d: non-native output", trial)
		}
	}
}

func TestSynthesize2QIdentityIsEmpty(t *testing.T) {
	s := New(gateset.IBMQ20)
	out, err := s.Synthesize(linalg.Identity(4), 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("identity synthesized with %d gates", out.Len())
	}
}

func TestSynthesize3QGHZPrep(t *testing.T) {
	// The GHZ preparation circuit (h; cx; cx) has an 8×8 unitary needing 2
	// CX gates; the synthesizer should find ≤ a handful.
	c := circuit.New(3)
	c.Append(gate.NewH(0), gate.NewCX(0, 1), gate.NewCX(1, 2))
	target := c.Unitary()
	s := New(gateset.IBMQ20)
	// The default 500ms wall-clock budget is tuned for optimizer calls; under
	// a loaded CI runner (full-suite -race) this heaviest 8×8 case can starve
	// before the seeded search reaches its solution. The search itself is
	// deterministic — it just needs the CPU time.
	s.MaxTime = 10 * time.Second
	out, err := s.Synthesize(target, 3, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.HSDistance(out.Unitary(), target); d > 1e-7 {
		t.Fatalf("distance %g", d)
	}
	if got := out.TwoQubitCount(); got > 4 {
		t.Fatalf("GHZ prep used %d two-qubit gates", got)
	}
}

func TestSynthesizeApproximationHelps(t *testing.T) {
	// A CP with a tiny angle is within loose eps of a CX-free circuit; a
	// large eps must therefore yield fewer two-qubit gates than eps=1e-8.
	c := circuit.New(2)
	c.Append(gate.NewCP(0.02, 0, 1))
	target := c.Unitary()
	s := New(gateset.IBMQ20)
	tight, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := s.Synthesize(target, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if loose.TwoQubitCount() >= tight.TwoQubitCount() && tight.TwoQubitCount() > 0 {
		t.Fatalf("loose eps gave %d 2q gates, tight gave %d — approximation should help",
			loose.TwoQubitCount(), tight.TwoQubitCount())
	}
	if d := linalg.HSDistance(loose.Unitary(), target); d > 0.05 {
		t.Fatalf("loose result exceeds its eps: %g", d)
	}
}

func TestSynthesizeRejectsFiniteSet(t *testing.T) {
	s := New(gateset.CliffordT)
	if _, err := s.Synthesize(linalg.Identity(2), 1, 1e-8); err == nil {
		t.Fatal("finite gate set should be rejected")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := circuit.Random(2, 8, circuit.DefaultTestVocab, rng)
	target := c.Unitary()
	s := New(gateset.IBMQ20)
	a, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Synthesize(target, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !circuit.Equal(a, b) {
		t.Fatal("synthesis is not deterministic for identical targets")
	}
}

// TestSynthesizeContextCancelPrompt: a cancelled context aborts synthesis
// within one structure evaluation even when MaxTime is far away — the
// guarantee that lets the optimizer's cancellation path avoid draining a
// full synthesis deadline.
func TestSynthesizeContextCancelPrompt(t *testing.T) {
	s := New(gateset.IBMQ20)
	s.MaxTime = 30 * time.Second
	rng := rand.New(rand.NewSource(5))
	target := circuit.Random(3, 24, gateset.IBMQ20.Gates, rng).Unitary()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.SynthesizeContext(ctx, target, 3, 1e-8); err == nil {
		t.Fatal("cancelled synthesis reported success on a hard 3q target")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled synthesis took %v, want prompt return", elapsed)
	}
}

// doneAt is a context that reads as cancelled from the n-th call of its
// Done method on, and counts every call.
type doneAt struct {
	context.Context
	n, calls     int
	open, closed chan struct{}
}

func newDoneAt(n int) *doneAt {
	c := &doneAt{Context: context.Background(), n: n, open: make(chan struct{}), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *doneAt) Done() <-chan struct{} {
	c.calls++
	if c.calls >= c.n {
		return c.closed
	}
	return c.open
}

func (c *doneAt) Err() error {
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSynthesizeStopsAtCancel cancels a hard 3-qubit search at each of its
// first Done polls in turn and checks that the search polls no more after
// the one that saw the cancel, so it evaluates no further structure. The
// search polls once per structure evaluation: polls 6–8 fall on the first
// of two beam parents at depth 2, where leaving only the pair loop would
// go on to evaluate a child of the second parent in full.
func TestSynthesizeStopsAtCancel(t *testing.T) {
	s := New(gateset.IBMQ20)
	s.MaxTime = 0
	target := circuit.Random(3, 24, gateset.IBMQ20.Gates, rand.New(rand.NewSource(5))).Unitary()
	for n := 1; n <= 13; n++ {
		ctx := newDoneAt(n)
		if _, err := s.SynthesizeContext(ctx, target, 3, 1e-8); err == nil {
			t.Fatalf("cancel at poll %d: synthesis reported success on a hard 3q target", n)
		}
		if ctx.calls != n {
			t.Fatalf("cancel at poll %d: the search polled Done %d times", n, ctx.calls)
		}
	}
}

// TestSynthesizeNativeForUnregisteredSet pins the output of a set that is
// not name-addressable to its basis. Cleaning the output once resolved
// the set by name, and an unregistered {u1, u2, u3, cx} set then had its
// merged z-phases emitted as rz.
func TestSynthesizeNativeForUnregisteredSet(t *testing.T) {
	gs, err := gateset.New("adhoc-u-basis", "superconducting", gate.U1, gate.U2, gate.U3, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	s := New(gs)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		target := circuit.Random(2, 12, circuit.DefaultTestVocab, rng).Unitary()
		out, err := s.Synthesize(target, 2, 1e-8)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !gs.IsNative(out) {
			t.Fatalf("trial %d: non-native output %v", trial, out.CountByName())
		}
		if d := linalg.HSDistance(out.Unitary(), target); d > 1e-7 {
			t.Fatalf("trial %d: distance %g", trial, d)
		}
	}
}
