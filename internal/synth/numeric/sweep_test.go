package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// The dense reference kernel: the textbook form of the coordinate-ascent
// sweep, with full d×d products for every angle. The O(d²) kernel in
// solve.go must agree with it up to float rounding.

// overlap returns |Tr(A†·U(params))| / N.
func (t *Template) overlap(adj linalg.Matrix, params []float64) float64 {
	u := t.Unitary(params)
	return cmplx.Abs(linalg.Trace(linalg.Mul(adj, u))) / float64(u.N)
}

// denseUnitary evaluates the template from gate.Matrix and ApplyGateLeft.
func denseUnitary(t *Template, params []float64) linalg.Matrix {
	u := linalg.Identity(1 << t.N)
	pi := 0
	for _, e := range t.Elems {
		var m linalg.Matrix
		if e.fixed {
			m = gate.Matrix(gate.New(e.name, e.qubits, nil))
		} else {
			m = gate.Matrix(gate.New(e.name, e.qubits, []float64{params[pi]}))
			pi++
		}
		linalg.ApplyGateLeft(m, e.qubits, t.N, u)
	}
	return u
}

// denseSweep is one coordinate-ascent pass with dense suffix products
// S[i] = M_k ··· M_i and a = Tr(A†·S[i+1]·R), b = Tr(A†·S[i+1]·(−iP)·R).
func denseSweep(t *Template, adj linalg.Matrix, params []float64) float64 {
	dim := 1 << t.N
	k := len(t.Elems)
	suffix := make([]linalg.Matrix, k+1)
	suffix[k] = linalg.Identity(dim)
	pidx := make([]int, k)
	pi := t.nparam
	for i := k - 1; i >= 0; i-- {
		e := t.Elems[i]
		var gm linalg.Matrix
		if e.fixed {
			pidx[i] = -1
			gm = gate.Matrix(gate.New(e.name, e.qubits, nil))
		} else {
			pi--
			pidx[i] = pi
			gm = gate.Matrix(gate.New(e.name, e.qubits, []float64{params[pi]}))
		}
		suffix[i] = mulRight(suffix[i+1].Clone(), gm, e.qubits, t.N)
	}
	prefix := linalg.Identity(dim)
	var tau float64
	for i := 0; i < k; i++ {
		e := t.Elems[i]
		if e.fixed {
			linalg.ApplyGateLeft(gate.Matrix(gate.New(e.name, e.qubits, nil)), e.qubits, t.N, prefix)
			continue
		}
		L := linalg.Mul(adj, suffix[i+1])
		a := linalg.Trace(linalg.Mul(L, prefix))
		pr := prefix.Clone()
		var pauli linalg.Matrix
		if e.name == gate.Rz {
			pauli = linalg.FromRows([][]complex128{{-1i, 0}, {0, 1i}}) // −i·σz
		} else {
			pauli = linalg.FromRows([][]complex128{{0, -1}, {1, 0}}) // −i·σy
		}
		linalg.ApplyGateLeft(pauli, e.qubits, t.N, pr)
		b := linalg.Trace(linalg.Mul(L, pr))
		A := real(a)*real(a) + imag(a)*imag(a)
		B := real(b)*real(b) + imag(b)*imag(b)
		C := 2 * (real(a)*real(b) + imag(a)*imag(b))
		theta := math.Atan2(C, A-B)
		params[pidx[i]] = theta
		gm := gate.Matrix(gate.New(e.name, e.qubits, []float64{theta}))
		linalg.ApplyGateLeft(gm, e.qubits, t.N, prefix)
		x := theta / 2
		tau = cmplx.Abs(complex(math.Cos(x), 0)*a+complex(math.Sin(x), 0)*b) / float64(dim)
	}
	return tau
}

// mulRight returns m·Expand(g, qs) as (gᵀ·mᵀ)ᵀ, using ApplyGateLeft on the
// transpose.
func mulRight(m, g linalg.Matrix, qs []int, n int) linalg.Matrix {
	mt := transpose(m)
	linalg.ApplyGateLeft(transpose(g), qs, n, mt)
	return transpose(mt)
}

func randomAngles(n int, rng *rand.Rand) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	return p
}

// TestSweepMatchesDense pins the O(d²) sweep to the dense formula: on
// random 1-, 2- and 3-qubit templates, the two kernels run 50 sweeps each
// from the same random angles and must agree on |τ| and on every angle
// after every sweep. Angles are compared modulo 2π: where an angle's
// optimum is ±π, atan2's branch cut lets rounding pick either side, and the
// two rotations differ only by a global sign. The product the sweep leaves
// in scratch must be U(params), and Unitary must match the gate.Matrix
// product.
func TestSweepMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type structure struct {
		n     int
		pairs [][2]int
	}
	structures := []structure{
		{1, nil}, {2, nil}, {3, nil},
		{2, [][2]int{{0, 1}, {0, 1}, {0, 1}}},
		{3, [][2]int{{1, 2}, {1, 2}, {0, 2}, {0, 1}}},
	}
	for len(structures) < 20 {
		n := 2 + rng.Intn(2)
		ps := pairSets(n)
		pairs := make([][2]int, rng.Intn(5))
		for i := range pairs {
			pairs[i] = ps[rng.Intn(len(ps))]
		}
		structures = append(structures, structure{n, pairs})
	}
	for si, st := range structures {
		tpl := NewTemplate(st.n, st.pairs)
		target := circuit.Random(st.n, 12, circuit.DefaultTestVocab, rng).Unitary()
		adj := linalg.Adjoint(target)
		fast := randomAngles(tpl.NumParams(), rng)
		dense := append([]float64(nil), fast...)
		for s := 0; s < 50; s++ {
			tf := tpl.sweep(adj, fast)
			td := denseSweep(tpl, adj, dense)
			if math.Abs(tf-td) > 1e-12 {
				t.Fatalf("structure %d %v, sweep %d: |τ| %.17g, dense %.17g", si, st.pairs, s, tf, td)
			}
			for i := range fast {
				if math.Abs(linalg.NormAngle(fast[i]-dense[i])) > 1e-9 {
					t.Fatalf("structure %d %v, sweep %d: angle %d is %.17g, dense %.17g", si, st.pairs, s, i, fast[i], dense[i])
				}
			}
			u := tpl.Unitary(fast)
			if d := linalg.MaxAbsDiff(linalg.Matrix{N: u.N, Data: tpl.r}, u); d > 1e-12 {
				t.Fatalf("structure %d %v, sweep %d: scratch product is %g from Unitary", si, st.pairs, s, d)
			}
			if d := linalg.MaxAbsDiff(u, denseUnitary(tpl, fast)); d > 1e-12 {
				t.Fatalf("structure %d %v, sweep %d: Unitary is %g from the gate.Matrix product", si, st.pairs, s, d)
			}
		}
	}
}

// sweepFixture is a 3-qubit template with 4 CX gates (39 angles) at random
// angles, and a random target's adjoint.
func sweepFixture() (*Template, linalg.Matrix, linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(8))
	tpl := NewTemplate(3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}})
	target := circuit.Random(3, 24, circuit.DefaultTestVocab, rng).Unitary()
	return tpl, target, linalg.Adjoint(target), randomAngles(tpl.NumParams(), rng)
}

func TestSweepZeroAlloc(t *testing.T) {
	tpl, target, adj, params := sweepFixture()
	tpl.sweep(adj, params) // allocates the template's scratch
	if allocs := testing.AllocsPerRun(20, func() { tpl.sweep(adj, params) }); allocs != 0 {
		t.Errorf("sweep: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { tpl.Distance(target, params) }); allocs != 0 {
		t.Errorf("Distance: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkSweep3Q(b *testing.B) {
	tpl, _, adj, params := sweepFixture()
	tpl.sweep(adj, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl.sweep(adj, params)
	}
}
