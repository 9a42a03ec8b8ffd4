package gateset_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/phasepoly"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// oracleSet is an unregistered copy of a built-in whose Decompose hook
// lowers single-qubit gates by refTranslate1Q. Multi-qubit gates fall
// through to Translate's own lowering, so Translate into the copy is the
// whole lowering as it was when single-qubit gates branched on the name.
func oracleSet(t testing.TB, gs *gateset.GateSet) *gateset.GateSet {
	t.Helper()
	o, err := gateset.New(gs.Name+"-oracle", gs.Architecture, gs.Gates...)
	if err != nil {
		t.Fatal(err)
	}
	o.Decompose = func(g gate.Gate) ([]gate.Gate, bool) {
		if len(g.Qubits) != 1 {
			return nil, false
		}
		tmp := circuit.New(g.Qubits[0] + 1)
		if err := refTranslate1Q(g, gs, tmp); err != nil {
			return nil, false
		}
		return tmp.Gates, true
	}
	return o
}

// dataCopy is an unregistered set with a built-in's basis and
// architecture under another name.
func dataCopy(t testing.TB, gs *gateset.GateSet) *gateset.GateSet {
	t.Helper()
	c, err := gateset.New(gs.Name+"-copy", gs.Architecture, gs.Gates...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// translationInputs is every circuit the lowering is pinned on: the NISQ
// and Clifford+T suites, random Clifford+T circuits, and random
// circuit.DefaultTestVocab circuits whose angles are often multiples of
// π/4 (so Clifford+T can represent them).
func translationInputs() []*circuit.Circuit {
	var out []*circuit.Circuit
	for _, b := range benchmarks.Suite() {
		out = append(out, b.Circuit)
	}
	for _, b := range benchmarks.CliffordTSuite() {
		out = append(out, b.Circuit)
	}
	for seed := int64(1); seed <= 50; seed++ {
		out = append(out, benchmarks.RandomCliffordT(5, 60, seed))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		c := circuit.Random(1+rng.Intn(5), 5+rng.Intn(60), circuit.DefaultTestVocab, rng)
		if i%2 == 0 {
			for _, g := range c.Gates {
				for k := range g.Params {
					g.Params[k] = float64(rng.Intn(17)-8) * math.Pi / 4
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// TestTranslateMatchesReference pins the capability path to the per-name
// lowering it replaced: on every input and built-in, the same gates bit
// for bit, or an error from both.
func TestTranslateMatchesReference(t *testing.T) {
	inputs := translationInputs()
	for _, gs := range gateset.All() {
		oracle := oracleSet(t, gs)
		for i, c := range inputs {
			got, err := gateset.Translate(c, gs)
			want, werr := gateset.Translate(c, oracle)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s input %d: error %v, reference error %v", gs.Name, i, err, werr)
			}
			if err == nil && !sameBits(got, want) {
				t.Fatalf("%s input %d: lowering differs from the reference\nin:  %s\ngot: %s\nref: %s",
					gs.Name, i, c, got, want)
			}
		}
	}
}

// TestTranslateDeparturesFromReference covers the places where the
// capability path departs from the per-name lowering it replaced; neither
// suite contains such a gate. A u3-family gate with θ ≈ 0 is a z-rotation:
// into ibm-eagle and nam it becomes one rz, where the per-name paths
// emitted 5 and 2 gates. And u1 is a named z-phase gate: into ionq it
// becomes rz with u1's exact angle, where the per-name path re-derived the
// angle through a ZYZ factorization.
func TestTranslateDeparturesFromReference(t *testing.T) {
	for _, tc := range []struct {
		gs     *gateset.GateSet
		g      gate.Gate
		refLen int
	}{
		{gateset.IBMEagle, gate.NewU3(0, 0.3, 0.4, 0), 5},
		{gateset.IBMEagle, gate.NewU3(1e-13, -1.1, 2.5, 0), 5},
		{gateset.Nam, gate.NewU3(0, 0.3, 0.4, 0), 2},
		{gateset.Nam, gate.NewU3(1e-13, -1.1, 2.5, 0), 2},
		{gateset.IonQ, gate.NewU1(5, 0), 1},
		{gateset.IonQ, gate.NewU1(-3.9502900555612293, 0), 1},
	} {
		c := circuit.New(1)
		c.Append(tc.g)
		got, err := gateset.Translate(c, tc.gs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := gateset.Translate(c, oracleSet(t, tc.gs))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Len() != tc.refLen {
			t.Errorf("%s %v: reference emits %d gates, want %d", tc.gs.Name, tc.g, ref.Len(), tc.refLen)
		}
		if got.Len() != 1 || got.Gates[0].Name != gate.Rz {
			t.Errorf("%s %v: got %s, want one rz", tc.gs.Name, tc.g, got)
		}
		if tc.g.Name == gate.U1 && got.Gates[0].Params[0] != tc.g.Params[0] {
			t.Errorf("%s %v: got %s, want u1's exact angle", tc.gs.Name, tc.g, got)
		}
		if !linalg.EqualUpToPhase(got.Unitary(), ref.Unitary(), 1e-10) ||
			!linalg.EqualUpToPhase(got.Unitary(), c.Unitary(), 1e-10) {
			t.Errorf("%s %v: got %s, not equivalent to %s", tc.gs.Name, tc.g, got, ref)
		}
	}
}

// TestTranslateCliffordTRy pins ry over a Clifford+T basis to S·Rx(θ)·S†.
// The per-name lowering wrote S†·Rx(θ)·S, which is Ry(−θ): for θ an odd
// multiple of π/4, or ±π/2, its output was not equivalent to its input.
func TestTranslateCliffordTRy(t *testing.T) {
	czBasis, err := gateset.New("ft-cz", "fault tolerant", gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CZ)
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range []*gateset.GateSet{gateset.CliffordT, czBasis} {
		for k := -3; k <= 3; k++ {
			c := circuit.New(1)
			c.Append(gate.NewRy(float64(k)*math.Pi/4, 0))
			out, err := gateset.Translate(c, gs)
			if err != nil {
				t.Fatal(err)
			}
			if !gs.IsNative(out) || !linalg.EqualUpToPhase(out.Unitary(), c.Unitary(), 1e-10) {
				t.Errorf("%s: ry(%d·π/4) lowered to %s", gs.Name, k, out)
			}
		}
	}
	c := circuit.New(1)
	c.Append(gate.NewRy(math.Pi/4, 0))
	ref, err := gateset.Translate(c, oracleSet(t, gateset.CliffordT))
	if err != nil {
		t.Fatal(err)
	}
	if linalg.EqualUpToPhase(ref.Unitary(), c.Unitary(), 1e-10) {
		t.Error("the reference lowering of ry(π/4) is equivalent; this test's premise is stale")
	}
}

// pass is a τ₀ pass's one entry point.
type pass struct {
	name string
	run  func(*circuit.Circuit, *gateset.GateSet) (*circuit.Circuit, int)
}

// TestBuiltinsAreData requires every built-in to behave exactly like an
// unregistered set with the same basis and architecture: Translate,
// cleanup, phase folding and, on continuous sets, fusion give bit-identical
// output on suite and random circuits.
func TestBuiltinsAreData(t *testing.T) {
	inputs := translationInputs()
	for _, gs := range gateset.All() {
		cp := dataCopy(t, gs)
		passes := []pass{{"cleanup", rewrite.CleanupChangedFor}, {"phasefold", phasepoly.FoldChangedFor}}
		if gs.Continuous() {
			passes = append(passes, pass{"fuse1q", rewrite.Fuse1QChanged})
		}
		for i, c := range inputs {
			a, aerr := gateset.Translate(c, gs)
			b, berr := gateset.Translate(c, cp)
			if (aerr != nil) != (berr != nil) {
				t.Fatalf("%s input %d: error %v, copy error %v", gs.Name, i, aerr, berr)
			}
			if aerr != nil {
				continue
			}
			if !sameBits(a, b) {
				t.Fatalf("%s input %d: Translate differs from the copy\nbuilt-in: %s\ncopy:     %s", gs.Name, i, a, b)
			}
			for _, p := range passes {
				x, n := p.run(a, gs)
				y, m := p.run(a, cp)
				if n != m || !sameBits(x, y) {
					t.Fatalf("%s input %d: %s differs from the copy (changed %d vs %d)", gs.Name, i, p.name, n, m)
				}
			}
		}
	}
}

// sameBits reports whether two circuits are equal gate for gate, with
// parameters compared bit for bit, so their QASM is byte-identical.
func sameBits(a, b *circuit.Circuit) bool {
	if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i, g := range a.Gates {
		h := b.Gates[i]
		if g.Name != h.Name || !slices.Equal(g.Qubits, h.Qubits) || len(g.Params) != len(h.Params) {
			return false
		}
		for k, v := range g.Params {
			if math.Float64bits(v) != math.Float64bits(h.Params[k]) {
				return false
			}
		}
	}
	return true
}

// fuzzSets is every built-in plus capability-only bases: one per Euler
// form, and a finite Clifford+T basis over CZ.
func fuzzSets(t testing.TB) []*gateset.GateSet {
	t.Helper()
	sets := gateset.All()
	for i, basis := range [][]gate.Name{
		{gate.U3, gate.CX},
		{gate.Rz, gate.SX, gate.CX},
		{gate.Rz, gate.Ry, gate.CX},
		{gate.Rz, gate.Rx, gate.CZ},
		{gate.Rz, gate.H, gate.CX},
		{gate.H, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.X, gate.CZ},
	} {
		gs, err := gateset.New(fmt.Sprintf("fuzz-%d", i), "", basis...)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, gs)
	}
	return sets
}

// oneQubitGates is every single-qubit gate of the vocabulary.
var oneQubitGates = []gate.Name{
	gate.I, gate.H, gate.X, gate.Y, gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg,
	gate.SX, gate.SXdg, gate.Rx, gate.Ry, gate.Rz, gate.U1, gate.U2, gate.U3,
}

// FuzzTranslate lowers one single-qubit gate with arbitrary angles into
// each fuzz set. It must never panic; a successful lowering must be native
// and equal to the gate up to global phase; and a rotation by an angle
// that is not a multiple of π/4 must fail in a finite set.
func FuzzTranslate(f *testing.F) {
	sets := fuzzSets(f)
	index := func(n gate.Name) uint8 { return uint8(slices.Index(oneQubitGates, n)) }
	for s := range sets {
		set := uint8(s)
		f.Add(index(gate.U3), set, 0.0, 0.3, 0.4)      // u3 with θ = 0: a z-rotation
		f.Add(index(gate.U1), set, -math.Pi, 0.0, 0.0) // u1(−π): the wrap point
		f.Add(index(gate.H), set, 0.0, 0.0, 0.0)       // h into a u2 basis
		f.Add(index(gate.Rx), set, 0.7, 0.0, 0.0)      // rx into {rz, h}
		f.Add(index(gate.Rz), set, 0.3, 0.0, 0.0)      // not a π/4 multiple
	}
	f.Fuzz(func(t *testing.T, gi, si uint8, a, b, c float64) {
		name := oneQubitGates[int(gi)%len(oneQubitGates)]
		gs := sets[int(si)%len(sets)]
		spec, _ := gate.SpecOf(name)
		params := []float64{a, b, c}[:spec.Params]
		in := circuit.New(1)
		in.Append(gate.New(name, []int{0}, params))
		out, err := gateset.Translate(in, gs)
		for _, p := range params {
			if math.IsNaN(p) || math.IsInf(p, 0) || math.Abs(p) > 1e6 {
				// Lowered without a panic. Past 1e6 rad, rounding the
				// angle sums inside gate matrices alone (u2's φ+λ) exceeds
				// the equivalence tolerance.
				return
			}
		}
		if spec.Params == 1 && !gs.Continuous() && !in.Gates[0].IsIdentityAngle(1e-12) &&
			math.Abs(math.Remainder(a, math.Pi/4)) > 1e-6 {
			if err == nil {
				t.Fatalf("%s(%g) into %s: got %s, want an error", name, a, gs.Name, out)
			}
			return
		}
		if err != nil {
			if gs.Continuous() {
				t.Fatalf("%s%v into %s: %v", name, params, gs.Name, err)
			}
			return
		}
		if !gs.IsNative(out) {
			t.Fatalf("%s%v into %s: non-native %s", name, params, gs.Name, out)
		}
		if !linalg.EqualUpToPhase(out.Unitary(), in.Unitary(), 1e-8) {
			t.Fatalf("%s%v into %s: %s is not equivalent", name, params, gs.Name, out)
		}
	})
}
