package rewrite

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// passSets is every built-in gate set plus two ad-hoc finite sets that are
// not name-addressable: one with the full π/4 ladder, and one without T,
// where a merged z-phase has no native form and cleanup keeps the run.
func passSets(t testing.TB) []*gateset.GateSet {
	t.Helper()
	ladder, err := gateset.New("adhoc-ladder", "fault tolerant",
		gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CZ)
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

// randomPassCircuit is a random circuit whose angles are often multiples
// of π/4, some outside (−π, π] and some ±0, and whose gates often repeat
// or invert their predecessor, so the passes' merges, cancellations and
// normalizations all occur.
func randomPassCircuit(n, gates int, vocab []gate.Name, rng *rand.Rand) *circuit.Circuit {
	c := circuit.Random(n, gates, vocab, rng)
	for i, g := range c.Gates {
		for k := range g.Params {
			switch rng.Intn(6) {
			case 0:
				g.Params[k] = float64(rng.Intn(17)-8) * math.Pi / 4
			case 1:
				g.Params[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case 2:
				g.Params[k] += 2 * math.Pi
			}
		}
		if i > 0 && rng.Intn(4) == 0 {
			switch prev := c.Gates[i-1]; rng.Intn(2) {
			case 0:
				c.Gates[i] = prev.Clone()
			default:
				if inv := gate.Inverse(prev); inv.Name == prev.Name || containsName(vocab, inv.Name) {
					c.Gates[i] = inv
				}
			}
		}
	}
	return c
}

func containsName(names []gate.Name, n gate.Name) bool {
	for _, m := range names {
		if m == n {
			return true
		}
	}
	return false
}

// TestPassesMatchReference pins the scratch-backed cleanup and fusion to
// the reference passes: the same output QASM and the same changed count,
// on every gate set, over rounds that iterate random circuits to the
// passes' joint fixpoint, where the no-op cases live.
func TestPassesMatchReference(t *testing.T) {
	for _, gs := range passSets(t) {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 200; trial++ {
			c := randomPassCircuit(1+rng.Intn(6), 5+rng.Intn(80), gs.Gates, rng)
			for round := 0; round < 10; round++ {
				out, n := CleanupChangedFor(c, gs)
				ref, rn := refCleanupChanged(c, gs)
				if n != rn || out.WriteQASM() != ref.WriteQASM() {
					t.Fatalf("%s trial %d round %d: cleanup changed %d, reference %d\nin:  %s\nout: %s\nref: %s",
						gs.Name, trial, round, n, rn, c, out, ref)
				}
				fused, m := Fuse1QChanged(out, gs)
				fref, rm := refFuse1QChanged(out, gs)
				if m != rm || fused.WriteQASM() != fref.WriteQASM() {
					t.Fatalf("%s trial %d round %d: fuse1q changed %d, reference %d\nin:  %s\nout: %s\nref: %s",
						gs.Name, trial, round, m, rm, out, fused, fref)
				}
				if n == 0 && m == 0 {
					break
				}
				c = fused
			}
		}
	}
}

// fixpointCircuit returns a random native circuit iterated to the joint
// fixpoint of cleanup and (on continuous sets) fusion.
func fixpointCircuit(t testing.TB, gs *gateset.GateSet, seed int64) *circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := circuit.Random(8, 300, gs.Gates, rng)
	for round := 0; ; round++ {
		if round == 20 {
			t.Fatalf("%s: no fixpoint after %d rounds", gs.Name, round)
		}
		out, n := CleanupChangedFor(c, gs)
		m := 0
		if gs.Continuous() {
			out, m = Fuse1QChanged(out, gs)
		}
		if n == 0 && m == 0 {
			return c
		}
		c = out
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestPassesNoopZeroAlloc pins the fast path: a call that changes nothing
// returns its input and allocates nothing.
func TestPassesNoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so pooled scratch is reallocated")
	}
	for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.CliffordT} {
		c := fixpointCircuit(t, gs, 5)
		if out, n := CleanupChangedFor(c, gs); n != 0 || out != c {
			t.Fatalf("%s: cleanup of a fixpoint changed %d", gs.Name, n)
		}
		if allocs := testing.AllocsPerRun(20, func() { CleanupChangedFor(c, gs) }); allocs != 0 {
			t.Errorf("%s: no-op cleanup: %v allocs/op, want 0", gs.Name, allocs)
		}
		if !gs.Continuous() {
			continue
		}
		if out, n := Fuse1QChanged(c, gs); n != 0 || out != c {
			t.Fatalf("%s: fuse1q of a fixpoint changed %d", gs.Name, n)
		}
		if allocs := testing.AllocsPerRun(20, func() { Fuse1QChanged(c, gs) }); allocs != 0 {
			t.Errorf("%s: no-op fuse1q: %v allocs/op, want 0", gs.Name, allocs)
		}
	}
}

// TestPassesConcurrent runs the passes from several goroutines at once, on
// different gate sets, so the pooled scratch and fusion's per-set memo are
// exercised under the race detector. Every result must equal the serial
// one.
func TestPassesConcurrent(t *testing.T) {
	sets := passSets(t)
	inputs := make([]*circuit.Circuit, len(sets))
	want := make([]string, len(sets))
	for i, gs := range sets {
		inputs[i] = randomPassCircuit(6, 200, gs.Gates, rand.New(rand.NewSource(int64(i))))
		out, _ := CleanupChangedFor(inputs[i], gs)
		out, _ = Fuse1QChanged(out, gs)
		want[i] = out.WriteQASM()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (w + k) % len(sets)
				out, _ := CleanupChangedFor(inputs[i], sets[i])
				out, _ = Fuse1QChanged(out, sets[i])
				if got := out.WriteQASM(); got != want[i] {
					t.Errorf("worker %d: %s differs from the serial result", w, sets[i].Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTau0PassesArePure pins what the engine's pass memo rests on: cleanup,
// fusion and phase folding are functions of the circuit and the gate set
// alone, whatever their pooled scratch or fusion's memo saw before. Every
// pass runs on seeded random and suite circuits of every built-in set,
// then again in two other orders, so calls on other circuits and sets
// come in between; each repeat must return the same change count and
// bit-identical gates (−0 and +0 differ).
func TestTau0PassesArePure(t *testing.T) {
	type job struct {
		pass    *Pass
		gs      *gateset.GateSet
		in, out *circuit.Circuit
		changed int
	}
	var jobs []*job
	rng := rand.New(rand.NewSource(23))
	for _, gs := range gateset.All() {
		ins := []*circuit.Circuit{}
		for k := 0; k < 4; k++ {
			ins = append(ins, randomPassCircuit(2+rng.Intn(5), 20+rng.Intn(120), gs.Gates, rng))
		}
		suite, err := benchmarks.SuiteFor(gs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(suite); i += 16 {
			ins = append(ins, suite[i].Circuit)
		}
		for _, p := range tau0Passes {
			if p.Name == "fuse1q" && !gs.Continuous() {
				continue
			}
			for _, c := range ins {
				out, changed := p.Run(c, gs)
				jobs = append(jobs, &job{pass: p, gs: gs, in: c, out: out.Clone(), changed: changed})
			}
		}
	}
	shuffled := slices.Clone(jobs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	reversed := slices.Clone(jobs)
	slices.Reverse(reversed)
	for _, order := range [][]*job{shuffled, reversed} {
		for _, j := range order {
			out, changed := j.pass.Run(j.in, j.gs)
			if changed != j.changed || !sameGateBits(out, j.out) {
				t.Fatalf("%s on %s (%d gates): changed %d, first call %d; outputs equal bit for bit: %v",
					j.pass.Name, j.gs.Name, j.in.Len(), changed, j.changed, sameGateBits(out, j.out))
			}
			if changed == 0 && out != j.in {
				t.Fatalf("%s on %s: a call that changed nothing returned a new circuit", j.pass.Name, j.gs.Name)
			}
		}
	}
	t.Logf("%d pass calls, each repeated twice", len(jobs))
}

// sameGateBits reports whether two circuits are equal gate for gate down
// to the bits of their parameters.
func sameGateBits(a, b *circuit.Circuit) bool {
	if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i := range a.Gates {
		if !sameBits(a.Gates[i], b.Gates[i]) {
			return false
		}
	}
	return true
}
