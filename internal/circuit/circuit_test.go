package circuit

import (
	"math"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

const tol = 1e-9

func bell() *Circuit {
	c := New(2)
	c.Append(gate.NewH(0), gate.NewCX(0, 1))
	return c
}

func TestCounts(t *testing.T) {
	c := New(3)
	c.Append(gate.NewH(0), gate.NewT(1), gate.NewTdg(2), gate.NewCX(0, 1),
		gate.NewCZ(1, 2), gate.NewRz(0.5, 0))
	if got := c.Len(); got != 6 {
		t.Errorf("Len = %d, want 6", got)
	}
	if got := c.TwoQubitCount(); got != 2 {
		t.Errorf("TwoQubitCount = %d, want 2", got)
	}
	if got := c.TCount(); got != 2 {
		t.Errorf("TCount = %d, want 2", got)
	}
	if got := c.CountOf(gate.H); got != 1 {
		t.Errorf("CountOf(h) = %d, want 1", got)
	}
}

func TestDepth(t *testing.T) {
	c := New(3)
	if c.Depth() != 0 {
		t.Fatal("empty circuit depth should be 0")
	}
	c.Append(gate.NewH(0), gate.NewH(1), gate.NewH(2))
	if c.Depth() != 1 {
		t.Fatalf("parallel H depth = %d, want 1", c.Depth())
	}
	c.Append(gate.NewCX(0, 1), gate.NewCX(1, 2))
	if c.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", c.Depth())
	}
}

func TestBellUnitary(t *testing.T) {
	u := bell().Unitary()
	s := complex(1/math.Sqrt2, 0)
	// Column j is C|j>: |00>→(|00>+|11>)/√2, |01>→(|01>+|10>)/√2,
	// |10>→(|00>−|11>)/√2, |11>→(|01>−|10>)/√2.
	want := linalg.FromRows([][]complex128{
		{s, 0, s, 0},
		{0, s, 0, s},
		{0, s, 0, -s},
		{s, 0, -s, 0},
	})
	if !linalg.Equal(u, want, tol) {
		t.Fatalf("bell unitary wrong:\n%v", u)
	}
}

func TestInverseCancels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		c := Random(3, 15, DefaultTestVocab, rng)
		inv := c.Inverse()
		full := c.Clone()
		full.Append(inv.Gates...)
		if !linalg.EqualUpToPhase(full.Unitary(), linalg.Identity(8), tol) {
			t.Fatalf("trial %d: C·C† != I", trial)
		}
	}
}

func TestApplyMatchesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := Random(3, 12, DefaultTestVocab, rng)
	u := c.Unitary()
	// Column j of U is C|j>.
	for j := 0; j < 8; j++ {
		state := make([]complex128, 8)
		state[j] = 1
		c.Apply(state)
		for i := 0; i < 8; i++ {
			if d := state[i] - u.At(i, j); real(d)*real(d)+imag(d)*imag(d) > tol {
				t.Fatalf("Apply mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := bell()
	cl := c.Clone()
	cl.Gates[0] = gate.NewX(0)
	cl.Append(gate.NewH(1))
	if c.Gates[0].Name != gate.H || c.Len() != 2 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	a, b := bell(), bell()
	if !Equal(a, b) {
		t.Fatal("identical circuits not Equal")
	}
	b.Gates[1] = gate.NewCX(1, 0)
	if Equal(a, b) {
		t.Fatal("different circuits Equal")
	}
	c := New(3)
	c.Append(gate.NewH(0), gate.NewCX(0, 1))
	if Equal(a, c) {
		t.Fatal("different qubit counts Equal")
	}
}

func TestMapQubits(t *testing.T) {
	c := bell()
	m := c.MapQubits([]int{2, 0}, 3)
	if m.NumQubits != 3 || m.Gates[0].Qubits[0] != 2 || m.Gates[1].Qubits[1] != 0 {
		t.Fatalf("MapQubits wrong: %v", m)
	}
}

func TestDAGWires(t *testing.T) {
	c := New(3)
	c.Append(gate.NewH(0), gate.NewCX(0, 1), gate.NewT(1), gate.NewCX(1, 2))
	d := BuildDAG(c)
	if w := d.Wire(1); len(w) != 3 || w[0] != 1 || w[1] != 2 || w[2] != 3 {
		t.Fatalf("wire(1) = %v", w)
	}
	if n := d.NextOnWire(0, 0); n != 1 {
		t.Fatalf("next after h on q0 = %d, want 1", n)
	}
	if p := d.PrevOnWire(3, 1); p != 2 {
		t.Fatalf("prev before cx(1,2) on q1 = %d, want 2", p)
	}
	if s := d.Successors(1); len(s) != 1 || s[0] != 2 {
		t.Fatalf("successors of cx(0,1) = %v", s)
	}
	if p := d.Predecessors(1); len(p) != 1 || p[0] != 0 {
		t.Fatalf("predecessors of cx(0,1) = %v", p)
	}
}

func TestGrowConvexSimple(t *testing.T) {
	// h q0; cx q0,q1; t q1 — growing from t with 2 qubits should absorb all.
	c := New(2)
	c.Append(gate.NewH(0), gate.NewCX(0, 1), gate.NewT(1))
	r := GrowConvex(c, 2, 2, 0, nil)
	if r == nil || len(r.Indices) != 3 {
		t.Fatalf("region = %+v, want all 3 gates", r)
	}
	if len(r.Qubits) != 2 {
		t.Fatalf("region qubits = %v", r.Qubits)
	}
}

func TestGrowConvexQubitLimit(t *testing.T) {
	// Growing from a 1q gate with limit 1 must not cross the cx.
	c := New(2)
	c.Append(gate.NewT(0), gate.NewT(0), gate.NewCX(0, 1), gate.NewT(0))
	r := GrowConvex(c, 0, 1, 0, nil)
	if len(r.Indices) != 2 || r.Indices[0] != 0 || r.Indices[1] != 1 {
		t.Fatalf("region indices = %v, want [0 1]", r.Indices)
	}
}

func TestGrowConvexSkipsDisjoint(t *testing.T) {
	// Gates on unrelated qubits inside the window are skipped, not selected.
	c := New(3)
	c.Append(gate.NewT(0), gate.NewH(2), gate.NewT(0))
	r := GrowConvex(c, 0, 1, 0, nil)
	if len(r.Indices) != 2 {
		t.Fatalf("indices = %v, want the two t gates", r.Indices)
	}
	for _, i := range r.Indices {
		if i == 1 {
			t.Fatal("selected the h on q2")
		}
	}
}

// TestRegionReplaceSemantics is the key invariant: replacing a convex region
// with an equivalent subcircuit preserves the whole-circuit unitary.
func TestRegionReplaceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		c := Random(4, 20, DefaultTestVocab, rng)
		orig := c.Unitary()
		r := RandomRegion(c, 3, 0, rng)
		if r == nil {
			continue
		}
		sub := r.Extract(c)
		// Identity replacement: re-insert the extracted subcircuit.
		c2 := r.Replace(c, sub)
		if !linalg.EqualUpToPhase(c2.Unitary(), orig, tol) {
			t.Fatalf("trial %d: identity replacement changed semantics\nregion %+v", trial, r)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("trial %d: gate count changed %d -> %d", trial, c.Len(), c2.Len())
		}
	}
}

// TestRegionReplaceWithInversePair replaces a region with sub + sub†·sub,
// a different but equivalent circuit, and checks semantics again.
func TestRegionReplaceWithInversePair(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		c := Random(4, 16, DefaultTestVocab, rng)
		orig := c.Unitary()
		r := RandomRegion(c, 2, 0, rng)
		if r == nil {
			continue
		}
		sub := r.Extract(c)
		padded := sub.Clone()
		padded.Append(sub.Inverse().Gates...)
		padded.Append(sub.Gates...)
		c2 := r.Replace(c, padded)
		if !linalg.EqualUpToPhase(c2.Unitary(), orig, 1e-8) {
			t.Fatalf("trial %d: padded replacement changed semantics", trial)
		}
	}
}

func TestRegionConvexity(t *testing.T) {
	// Every gate in the window that shares a qubit with the region must be
	// selected — the representation invariant that implies convexity.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		c := Random(5, 25, DefaultTestVocab, rng)
		r := RandomRegion(c, 3, 0, rng)
		if r == nil {
			continue
		}
		inQ := map[int]bool{}
		for _, q := range r.Qubits {
			inQ[q] = true
		}
		sel := map[int]bool{}
		for _, i := range r.Indices {
			sel[i] = true
		}
		for i := r.Lo; i <= r.Hi; i++ {
			touches := false
			inside := true
			for _, q := range c.Gates[i].Qubits {
				if inQ[q] {
					touches = true
				} else {
					inside = false
				}
			}
			if touches && !inside {
				t.Fatalf("trial %d: window gate %d straddles region boundary", trial, i)
			}
			if touches != sel[i] {
				t.Fatalf("trial %d: gate %d touches=%v selected=%v", trial, i, touches, sel[i])
			}
		}
	}
}

func TestGrowConvexMaxGates(t *testing.T) {
	c := New(1)
	for i := 0; i < 10; i++ {
		c.Append(gate.NewT(0))
	}
	r := GrowConvex(c, 5, 1, 4, nil)
	if len(r.Indices) > 4 {
		t.Fatalf("selected %d gates, cap was 4", len(r.Indices))
	}
}

func TestQASMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		c := Random(4, 15, DefaultTestVocab, rng)
		src := c.WriteQASM()
		parsed, err := ParseQASM(src)
		if err != nil {
			t.Fatalf("trial %d: parse error: %v\n%s", trial, err, src)
		}
		if !Equal(c, parsed) {
			t.Fatalf("trial %d: roundtrip mismatch", trial)
		}
	}
}

// A parse's gates own their arguments: the next parse, which reuses the
// parser's scratch, leaves them alone, an append to one gate's slice cannot
// reach the next gate's, and a gate without parameters has none.
func TestParseQASMGatesOwnTheirArguments(t *testing.T) {
	c, err := ParseQASM("qreg q[3];\nu3(1,2,3) q[0];\ncx q[1],q[2];\nh q[0];\nrz(4) q[2];\n")
	if err != nil {
		t.Fatal(err)
	}
	want := c.WriteQASM()
	if _, err := ParseQASM("qreg q[3];\nu3(5,6,7) q[2];\ncx q[2],q[0];\nh q[1];\nrz(8) q[1];\n"); err != nil {
		t.Fatal(err)
	}
	if got := c.WriteQASM(); got != want {
		t.Fatalf("gates changed after a second parse:\n%s\nwant:\n%s", got, want)
	}
	for i, g := range c.Gates {
		if cap(g.Qubits) != len(g.Qubits) || cap(g.Params) != len(g.Params) {
			t.Fatalf("gate %d: qubits %d/%d, params %d/%d (len/cap): an append would reach the next gate",
				i, len(g.Qubits), cap(g.Qubits), len(g.Params), cap(g.Params))
		}
	}
	if c.Gates[2].Params != nil {
		t.Fatalf("h has parameters %v, want nil", c.Gates[2].Params)
	}
}

func TestQASMParseDialect(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[2];
qreg anc[1];
creg c[2];
h q[0];
CX q[0], q[1];
rz(pi/4) anc[0];
u3(pi/2, -pi/4, 0.5e-1) q[1];
cp(2*pi/8) q[0], anc[0];
barrier q[0];
measure q[0] -> c[0];
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Fatalf("NumQubits = %d, want 3", c.NumQubits)
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (barrier/measure ignored)", c.Len())
	}
	if c.Gates[2].Qubits[0] != 2 {
		t.Fatalf("anc[0] should flatten to qubit 2, got %d", c.Gates[2].Qubits[0])
	}
	if math.Abs(c.Gates[2].Params[0]-math.Pi/4) > tol {
		t.Fatalf("rz angle = %g, want pi/4", c.Gates[2].Params[0])
	}
	if math.Abs(c.Gates[4].Params[0]-math.Pi/4) > tol {
		t.Fatalf("cp angle = %g, want pi/4", c.Gates[4].Params[0])
	}
}

func TestQASMErrors(t *testing.T) {
	cases := []string{
		"qreg q[2]; bogus q[0];",
		"qreg q[2]; cx q[0];",
		"qreg q[2]; rz q[0];",
		"qreg q[2]; rz(pi q[0];",
		"qreg q[2]; h r[0];",
		"qreg q[0];",
		"qreg q[2]; rz(1/0) q[0];",
		"qreg q[2]; h q[0]; qreg r[2];",
	}
	for _, src := range cases {
		if _, err := ParseQASM(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestExprEval(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"pi", math.Pi},
		{"-pi/2", -math.Pi / 2},
		{"3*pi/4", 3 * math.Pi / 4},
		{"(1+2)*3", 9},
		{"2e-3", 0.002},
		{"1 - 2 - 3", -4},
		{"--1", 1},
		{"pi*pi", math.Pi * math.Pi},
	}
	for _, c := range cases {
		got, err := evalExpr(c.in)
		if err != nil {
			t.Errorf("evalExpr(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > tol {
			t.Errorf("evalExpr(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestDistanceAndEquivalence(t *testing.T) {
	a := bell()
	b := bell()
	if d := Distance(a, b); d > tol {
		t.Fatalf("Distance of identical circuits = %g", d)
	}
	if !EquivalentUpToPhase(a, b, 1e-10) {
		t.Fatal("identical circuits not equivalent")
	}
	c := New(2)
	c.Append(gate.NewH(0))
	if EquivalentUpToPhase(a, c, 0.1) {
		t.Fatal("bell equivalent to h?")
	}
}

// A qubit argument ends at its ']': text after it is a missing comma or a
// typo, not something to drop. Dropping it lost an operand ("h q[0] q[1]"
// read as "h q[0]") and gave the typo the content address of another
// circuit.
func TestParseQASMRejectsTextAfterArgument(t *testing.T) {
	for _, src := range []string{
		"qreg q[2]; h q[0] q[1];",
		"qreg q[2]; cx q[0],q[1] q[0];",
		"qreg q[1]; h q[0]junk;",
		"qreg q[1]; h q[0]];",
	} {
		if c, err := ParseQASM(src); err == nil {
			t.Errorf("%q parsed as\n%s", src, c.WriteQASM())
		}
	}
	// Space around arguments and a trailing comma are still fine.
	for _, src := range []string{
		"qreg q[2]; cx q[0] , q[1] ;",
		"qreg q[2]; cx q [ 0 ],\tq[1]\n;",
		"qreg q[2]; cx q[0],q[1],;",
	} {
		if _, err := ParseQASM(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}
