package rewrite

import (
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// The changed-count contract: a pass reports changed == 0 exactly when its
// output is structurally identical to its input. The GUOQ loop relies on
// this to skip deep circuit.Equal compares, and the search trajectory (and
// with it the pinned guardrail counts) depends on it being exact — so fuzz
// it over every gate set, including iterated applications that reach the
// passes' fixpoints, where the subtle no-op cases (identity ladder
// re-emission, order-preserving merges) live.

func TestCleanupChangedMatchesEqual(t *testing.T) {
	for _, gs := range gateset.All() {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 60; trial++ {
			c := circuit.Random(5, 10+rng.Intn(60), gs.Gates, rng)
			for round := 0; round < 3; round++ {
				out, changed := CleanupChangedFor(c, gs)
				if got, want := changed > 0, !circuit.Equal(out, c); got != want {
					t.Fatalf("%s trial %d round %d: changed=%d but Equal=%v\nin:  %s\nout: %s",
						gs.Name, trial, round, changed, !want, c, out)
				}
				if changed == 0 {
					break
				}
				c = out
			}
		}
	}
}

func TestFuse1QChangedMatchesEqual(t *testing.T) {
	for _, gs := range gateset.All() {
		if !gs.Continuous() {
			continue
		}
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 60; trial++ {
			c := circuit.Random(5, 10+rng.Intn(60), gs.Gates, rng)
			for round := 0; round < 3; round++ {
				out, changed := Fuse1QChanged(c, gs)
				if got, want := changed > 0, !circuit.Equal(out, c); got != want {
					t.Fatalf("%s trial %d round %d: changed=%d but Equal=%v\nin:  %s\nout: %s",
						gs.Name, trial, round, changed, !want, c, out)
				}
				if changed == 0 {
					break
				}
				c = out
			}
		}
	}
}

// TestCleanupForAdHocFiniteSet pins the regression where the z-phase merge
// emitted a non-native rz for gate sets that are not name-addressable: an
// unregistered finite set must get its π/4 ladder (or keep the run) —
// never a continuous rotation outside its basis.
func TestCleanupForAdHocFiniteSet(t *testing.T) {
	gs, err := gateset.New("adhoc-ft-cleanup", "fault tolerant",
		gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(1)
	c.Append(gate.NewT(0), gate.NewT(0))
	out, changed := CleanupChangedFor(c, gs)
	if changed == 0 {
		t.Fatal("t·t merge not detected")
	}
	if !gs.IsNative(out) {
		t.Fatalf("cleanup emitted non-native gates: %v", out.Gates)
	}
	if out.Len() != 1 || out.Gates[0].Name != gate.S {
		t.Fatalf("t·t should merge to s, got %v", out.Gates)
	}
	// A set with no z-phase vocabulary at all must keep the run untouched.
	bare, err := gateset.New("adhoc-bare-cleanup", "", gate.H, gate.Z, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	zz := circuit.New(1)
	zz.Append(gate.NewZ(0), gate.NewH(0), gate.NewZ(0))
	out2, _ := CleanupChangedFor(zz, bare)
	if !bare.IsNative(out2) {
		t.Fatalf("cleanup pushed a bare set out of basis: %v", out2.Gates)
	}
}
