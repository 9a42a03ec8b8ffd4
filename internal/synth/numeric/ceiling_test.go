package numeric

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/synth"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// suiteBlocks cuts n blocks of the given width from ibm-eagle suite
// circuits with a seeded RandomRegion, the way resynthesis picks them.
// It keeps blocks with at least width−1 two-qubit gates, the ones whose
// search has depths to cut.
func suiteBlocks(t *testing.T, width, n int, seed int64) []*circuit.Circuit {
	t.Helper()
	suite, err := benchmarks.SuiteFor(gateset.IBMEagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*circuit.Circuit
	for len(out) < n {
		c := suite[rng.Intn(len(suite))].Circuit
		r := circuit.RandomRegion(c, width, 0, rng)
		if r == nil || len(r.Qubits) != width {
			continue
		}
		if b := r.Extract(c); b.TwoQubitCount() >= width-1 {
			out = append(out, b)
		}
	}
	return out
}

// TestSynthesizeBoundedCeilingOracle checks the ceiling against the
// unbounded search on blocks cut from suite circuits: every bounded result
// has at most the ceiling's two-qubit gates and is within ε, a ceiling the
// unbounded result fits under gives exactly the unbounded result, and
// Synthesize and SynthesizeContext are the MaxBlocks case.
func TestSynthesizeBoundedCeilingOracle(t *testing.T) {
	s := New(gateset.IBMEagle)
	s.MaxTime = 0 // no deadline may cut a call short
	n2, n3 := 8, 6
	if raceEnabled {
		n2, n3 = 3, 1
	}
	type block struct {
		c   *circuit.Circuit
		eps float64
	}
	var blocks []block
	for _, c := range suiteBlocks(t, 2, n2, 1) {
		blocks = append(blocks, block{c, 1e-8}, block{c, 1e-3})
	}
	for _, c := range suiteBlocks(t, 3, n3, 2) {
		blocks = append(blocks, block{c, 1e-8})
	}
	ctx := context.Background()
	for i, b := range blocks {
		target, n, count := b.c.Unitary(), b.c.NumQubits, b.c.TwoQubitCount()
		unbounded, uerr := s.Synthesize(target, n, b.eps)
		viaCtx, cerr := s.SynthesizeContext(ctx, target, n, b.eps)
		if qasmOf(unbounded, uerr) != qasmOf(viaCtx, cerr) {
			t.Fatalf("block %d: Synthesize and SynthesizeContext differ", i)
		}
		for _, ceiling := range []int{count - 1, count, count + 1, s.MaxBlocks} {
			out, err := s.SynthesizeBounded(ctx, target, n, b.eps, ceiling)
			if err != nil && !errors.Is(err, synth.ErrNoSolution) {
				t.Fatalf("block %d, ceiling %d: %v", i, ceiling, err)
			}
			if err == nil {
				if got := out.TwoQubitCount(); got > ceiling {
					t.Fatalf("block %d: ceiling %d returned %d two-qubit gates", i, ceiling, got)
				}
				if d := linalg.HSDistance(target, out.Unitary()); d > b.eps {
					t.Fatalf("block %d, ceiling %d: distance %g > ε %g", i, ceiling, d, b.eps)
				}
			}
			fits := uerr == nil && unbounded.TwoQubitCount() <= ceiling
			if (fits || ceiling == s.MaxBlocks) && qasmOf(out, err) != qasmOf(unbounded, uerr) {
				t.Fatalf("block %d (%d two-qubit gates, ε %g), ceiling %d: bounded result differs from the unbounded one\n%s\nvs\n%s",
					i, count, b.eps, ceiling, qasmOf(out, err), qasmOf(unbounded, uerr))
			}
		}
	}
}

// TestSynthesizeBoundedIonQNeedsTwoCX: one rxx(θ) is one native two-qubit
// gate on ionq but needs two CX, so under a ceiling of one the 2-qubit
// search gives up at once and under two it succeeds.
func TestSynthesizeBoundedIonQNeedsTwoCX(t *testing.T) {
	s := New(gateset.IonQ)
	s.MaxTime = 0
	c := circuit.New(2)
	c.Append(gate.NewRxx(0.7, 0, 1))
	target := c.Unitary()
	if k := MinCXCount(target); k != 2 {
		t.Fatalf("MinCXCount(rxx(0.7)) = %d, want 2", k)
	}
	if _, err := s.SynthesizeBounded(context.Background(), target, 2, 1e-8, c.TwoQubitCount()); !errors.Is(err, synth.ErrNoSolution) {
		t.Fatalf("ceiling 1: err = %v, want ErrNoSolution", err)
	}
	out, err := s.SynthesizeBounded(context.Background(), target, 2, 1e-8, 2)
	if err != nil {
		t.Fatalf("ceiling 2: %v", err)
	}
	if got := out.TwoQubitCount(); got > 2 || !gateset.IonQ.IsNative(out) {
		t.Fatalf("ceiling 2: %d two-qubit gates, native %v", got, gateset.IonQ.IsNative(out))
	}
}

// TestSynthesizeBoundedCountsNativeGates: the ceiling bounds the emitted
// two-qubit gates, not the template's CX, so a set whose Decompose hook
// lowers one cx into three two-qubit gates cannot return a 1-CX structure
// under a ceiling of one.
func TestSynthesizeBoundedCountsNativeGates(t *testing.T) {
	gs, err := gateset.New("swapped-cz", "superconducting", gate.Rz, gate.SX, gate.X, gate.CZ, gate.Swap)
	if err != nil {
		t.Fatal(err)
	}
	gs.Decompose = func(g gate.Gate) ([]gate.Gate, bool) {
		if g.Name != gate.CX {
			return nil, false
		}
		// cx(c, x) = swap · cx(x, c) · swap, with cx(x, c) = H_c·cz·H_c.
		c, x := g.Qubits[0], g.Qubits[1]
		return []gate.Gate{gate.NewSwap(c, x), gate.NewH(c), gate.NewCZ(c, x), gate.NewH(c), gate.NewSwap(c, x)}, true
	}
	s := New(gs)
	target := gate.Matrix(gate.NewCX(0, 1))
	if _, err := s.SynthesizeBounded(context.Background(), target, 2, 1e-8, 1); !errors.Is(err, synth.ErrNoSolution) {
		t.Fatalf("ceiling 1: err = %v, want ErrNoSolution", err)
	}
	out, err := s.SynthesizeBounded(context.Background(), target, 2, 1e-8, 3)
	if err != nil || out.TwoQubitCount() > 3 {
		t.Fatalf("ceiling 3: %v, %v", out, err)
	}
}

// qasmOf renders a synthesis result for comparison; every failure renders
// alike.
func qasmOf(c *circuit.Circuit, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return c.WriteQASM()
}
