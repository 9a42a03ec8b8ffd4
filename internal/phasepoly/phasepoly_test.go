package phasepoly

import (
	"math"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

const tol = 1e-8

// fold is one FoldChangedFor call, for tests that need only its output.
func fold(c *circuit.Circuit, gs *gateset.GateSet) *circuit.Circuit {
	out, _ := FoldChangedFor(c, gs)
	return out
}

func TestMergeAcrossCX(t *testing.T) {
	// t q1; cx q0 q1; cx q0 q1; t q1 — the two T gates see the same parity
	// (the CX pair cancels the parity change), so they merge into an S.
	c := circuit.New(2)
	c.Append(gate.NewT(1), gate.NewCX(0, 1), gate.NewCX(0, 1), gate.NewT(1))
	out := fold(c, gateset.CliffordT)
	if got := out.TCount(); got != 0 {
		t.Fatalf("T count = %d, want 0 (merged to S)", got)
	}
	if got := out.CountOf(gate.S); got != 1 {
		t.Fatalf("S count = %d, want 1:\n%v", got, out)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), tol) {
		t.Fatal("fold changed semantics")
	}
}

func TestMergeOnMovedParity(t *testing.T) {
	// t q1; cx q0 q1; ... the parity of q1 after cx is x0⊕x1, and a later
	// t on q1 after another cx restoring the parity merges.
	c := circuit.New(2)
	c.Append(
		gate.NewT(1),     // phase on x1
		gate.NewCX(0, 1), // q1 carries x0⊕x1
		gate.NewT(1),     // phase on x0⊕x1
		gate.NewCX(0, 1), // back to x1
		gate.NewT(1),     // phase on x1 again -> merges with first
		gate.NewCX(0, 1), // x0⊕x1 again
		gate.NewTdg(1),   // cancels the second bucket's T
		gate.NewCX(0, 1), // restore
	)
	out := fold(c, gateset.CliffordT)
	// Bucket x1: T+T = S. Bucket x0⊕x1: T+Tdg = nothing.
	if got := out.TCount(); got != 0 {
		t.Fatalf("T count = %d, want 0:\n%v", got, out)
	}
	if got := out.TwoQubitCount(); got != 4 {
		t.Fatalf("CX count changed: %d", got)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), tol) {
		t.Fatal("fold changed semantics")
	}
}

func TestXConjugationSign(t *testing.T) {
	// x q0; t q0; x q0; t q0 — the first T acts on ¬x0, contributing −π/4
	// to the x0 bucket; the second contributes +π/4; net zero phases.
	c := circuit.New(1)
	c.Append(gate.NewX(0), gate.NewT(0), gate.NewX(0), gate.NewT(0))
	out := fold(c, gateset.CliffordT)
	if got := out.TCount(); got != 0 {
		t.Fatalf("T count = %d, want 0:\n%v", got, out)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), tol) {
		t.Fatal("fold changed semantics")
	}
}

func TestHBreaksRegion(t *testing.T) {
	// t; h; t — the H starts a new epoch, so the T gates must NOT merge.
	c := circuit.New(1)
	c.Append(gate.NewT(0), gate.NewH(0), gate.NewT(0))
	out := fold(c, gateset.CliffordT)
	if got := out.TCount(); got != 2 {
		t.Fatalf("T count = %d, want 2 (H must break the region)", got)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), tol) {
		t.Fatal("fold changed semantics")
	}
}

// TestFoldPreservesSemanticsFuzz is the core soundness check across random
// circuits, including H epoch breaks and X sign flips.
func TestFoldPreservesSemanticsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vocab := []gate.Name{gate.T, gate.Tdg, gate.S, gate.Sdg, gate.X, gate.H, gate.CX}
	for trial := 0; trial < 150; trial++ {
		c := circuit.Random(4, 30, vocab, rng)
		out := fold(c, gateset.CliffordT)
		if !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), tol) {
			t.Fatalf("trial %d: fold changed semantics\nin:\n%v\nout:\n%v", trial, c, out)
		}
		if out.TwoQubitCount() != c.TwoQubitCount() {
			t.Fatalf("trial %d: fold changed CX count %d -> %d",
				trial, c.TwoQubitCount(), out.TwoQubitCount())
		}
		if out.TCount() > c.TCount() {
			t.Fatalf("trial %d: fold increased T count %d -> %d",
				trial, c.TCount(), out.TCount())
		}
	}
}

func TestFoldContinuousGateSet(t *testing.T) {
	// rz merging for the nam set.
	rng := rand.New(rand.NewSource(2))
	vocab := []gate.Name{gate.Rz, gate.X, gate.H, gate.CX}
	for trial := 0; trial < 80; trial++ {
		c := circuit.Random(3, 25, vocab, rng)
		out := fold(c, gateset.Nam)
		if !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), tol) {
			t.Fatalf("trial %d: fold changed semantics", trial)
		}
		if out.CountOf(gate.Rz) > c.CountOf(gate.Rz) {
			t.Fatalf("trial %d: rz count increased", trial)
		}
	}
}

func TestFoldIdempotentOnTCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vocab := []gate.Name{gate.T, gate.Tdg, gate.S, gate.X, gate.H, gate.CX}
	c := circuit.Random(4, 60, vocab, rng)
	once := fold(c, gateset.CliffordT)
	twice := fold(once, gateset.CliffordT)
	if twice.TCount() != once.TCount() {
		t.Fatalf("second fold changed T count %d -> %d", once.TCount(), twice.TCount())
	}
}

func TestFoldZeroSum(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.NewRz(0.7, 0), gate.NewRz(-0.7, 0))
	out := fold(c, gateset.Nam)
	if out.Len() != 0 {
		t.Fatalf("zero-sum rotations should vanish, got %d gates", out.Len())
	}
}

func TestFoldAnglesAddExactly(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.NewRz(0.3, 0), gate.NewCX(1, 0), gate.NewCX(1, 0), gate.NewRz(0.4, 0))
	out := fold(c, gateset.Nam)
	var got float64
	for _, g := range out.Gates {
		if g.Name == gate.Rz {
			got = g.Params[0]
		}
	}
	if math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("merged angle = %g, want 0.7", got)
	}
}

// TestFoldChangedMatchesEqual fuzzes the changed-count contract: FoldChangedFor
// reports zero exactly when the output is structurally identical to the
// input, which is what lets callers skip deep no-op compares.
func TestFoldChangedMatchesEqual(t *testing.T) {
	for _, gsName := range []string{"nam", "cliffordt", "ibmq20", "ibm-eagle", "ionq"} {
		gs, err := gateset.ByName(gsName)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 60; trial++ {
			c := circuit.Random(5, 10+rng.Intn(60), gs.Gates, rng)
			for round := 0; round < 3; round++ {
				out, changed := FoldChangedFor(c, gs)
				if got, want := changed > 0, !circuit.Equal(out, c); got != want {
					t.Fatalf("%s trial %d round %d: changed=%d but Equal=%v\nin:  %s\nout: %s",
						gsName, trial, round, changed, !want, c, out)
				}
				if changed == 0 {
					break
				}
				c = out
			}
		}
	}
}
