package phasepoly

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// foldSets is every built-in gate set plus two ad-hoc finite sets that are
// not name-addressable: one that folds over the π/4 ladder, and one without
// T, which the capability pre-check refuses.
func foldSets(t testing.TB) []*gateset.GateSet {
	t.Helper()
	ladder, err := gateset.New("adhoc-ladder", "fault tolerant",
		gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CZ, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	noT, err := gateset.New("adhoc-no-t", "fault tolerant",
		gate.H, gate.S, gate.Sdg, gate.Z, gate.X, gate.CX)
	if err != nil {
		t.Fatal(err)
	}
	return append(gateset.All(), ladder, noT)
}

// randomFoldCircuit is a random circuit whose angles are often multiples
// of π/4 or ±0, so phase sites often re-emit their own gates.
func randomFoldCircuit(n, gates int, vocab []gate.Name, rng *rand.Rand) *circuit.Circuit {
	c := circuit.Random(n, gates, vocab, rng)
	for _, g := range c.Gates {
		for k := range g.Params {
			switch rng.Intn(4) {
			case 0:
				g.Params[k] = float64(rng.Intn(17)-8) * math.Pi / 4
			case 1:
				g.Params[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
	}
	return c
}

// TestFoldMatchesReference pins the scratch-backed fold to the reference
// fold: the same output QASM and the same changed count, on every gate
// set, iterating random circuits to the fold's fixpoint.
func TestFoldMatchesReference(t *testing.T) {
	for _, gs := range foldSets(t) {
		rng := rand.New(rand.NewSource(19))
		for trial := 0; trial < 200; trial++ {
			c := randomFoldCircuit(1+rng.Intn(6), 5+rng.Intn(80), gs.Gates, rng)
			for round := 0; round < 5; round++ {
				out, n := FoldChangedFor(c, gs)
				ref, rn := refFoldChanged(c, gs)
				if n != rn || out.WriteQASM() != ref.WriteQASM() {
					t.Fatalf("%s trial %d round %d: changed %d, reference %d\nin:  %s\nout: %s\nref: %s",
						gs.Name, trial, round, n, rn, c, out, ref)
				}
				if n == 0 {
					break
				}
				c = out
			}
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestFoldNoopZeroAlloc pins the fast path: a fold that changes nothing
// returns its input and allocates nothing.
func TestFoldNoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so pooled scratch is reallocated")
	}
	for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.CliffordT} {
		rng := rand.New(rand.NewSource(6))
		c := circuit.Random(8, 300, gs.Gates, rng)
		for n := 1; n > 0; {
			c, n = FoldChangedFor(c, gs)
		}
		if out, n := FoldChangedFor(c, gs); n != 0 || out != c {
			t.Fatalf("%s: fold of a fixpoint changed %d", gs.Name, n)
		}
		if allocs := testing.AllocsPerRun(20, func() { FoldChangedFor(c, gs) }); allocs != 0 {
			t.Errorf("%s: no-op fold: %v allocs/op, want 0", gs.Name, allocs)
		}
	}
}

// TestFoldConcurrent runs the fold from several goroutines at once, so the
// pooled scratch is exercised under the race detector. Every result must
// equal the serial one.
func TestFoldConcurrent(t *testing.T) {
	sets := foldSets(t)
	inputs := make([]*circuit.Circuit, len(sets))
	want := make([]string, len(sets))
	for i, gs := range sets {
		inputs[i] = randomFoldCircuit(6, 200, gs.Gates, rand.New(rand.NewSource(int64(i))))
		out, _ := FoldChangedFor(inputs[i], gs)
		want[i] = out.WriteQASM()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (w + k) % len(sets)
				if out, _ := FoldChangedFor(inputs[i], sets[i]); out.WriteQASM() != want[i] {
					t.Errorf("worker %d: %s differs from the serial result", w, sets[i].Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
