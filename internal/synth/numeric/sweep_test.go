package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// The dense reference kernel: the textbook form of the coordinate-ascent
// sweep, with every U3 site expanded into its own rz, ry and rz gates and
// full d×d products for every angle. The site kernel in solve.go must
// agree with it up to float rounding.

// overlap returns |Tr(A†·U(params))| / N.
func (t *Template) overlap(adj linalg.Matrix, params []float64) float64 {
	u := t.Unitary(params)
	return cmplx.Abs(linalg.Trace(linalg.Mul(adj, u))) / float64(u.N)
}

// denseElem is one gate of a template's expansion: a CX, or one rotation
// of a U3 site with the index of its angle.
type denseElem struct {
	name   gate.Name
	qubits []int
	param  int // −1 for a CX
}

// expand lists the template's gates in execution order, each U3 site as
// rz(λ), ry(θ), rz(φ) on its parameter slots.
func expand(t *Template) []denseElem {
	var out []denseElem
	pi := 0
	for _, s := range t.Sites {
		if s.cx {
			out = append(out, denseElem{gate.CX, []int{s.q[0], s.q[1]}, -1})
			continue
		}
		for _, name := range []gate.Name{gate.Rz, gate.Ry, gate.Rz} {
			out = append(out, denseElem{name, []int{s.q[0]}, pi})
			pi++
		}
	}
	return out
}

// matrix returns the gate's 2×2 or 4×4 matrix at the given parameters.
func (e denseElem) matrix(params []float64) linalg.Matrix {
	if e.param < 0 {
		return gate.Matrix(gate.New(e.name, e.qubits, nil))
	}
	return gate.Matrix(gate.New(e.name, e.qubits, []float64{params[e.param]}))
}

// denseUnitary evaluates the template from gate.Matrix and ApplyGateLeft.
func denseUnitary(t *Template, params []float64) linalg.Matrix {
	u := linalg.Identity(1 << t.N)
	for _, e := range expand(t) {
		linalg.ApplyGateLeft(e.matrix(params), e.qubits, t.N, u)
	}
	return u
}

// denseSweep is one coordinate-ascent pass over the expanded gates, with
// dense suffix products S[i] = M_k ··· M_i and a = Tr(A†·S[i+1]·R),
// b = Tr(A†·S[i+1]·(−iP)·R).
func denseSweep(t *Template, adj linalg.Matrix, params []float64) float64 {
	dim := 1 << t.N
	elems := expand(t)
	k := len(elems)
	suffix := make([]linalg.Matrix, k+1)
	suffix[k] = linalg.Identity(dim)
	for i := k - 1; i >= 0; i-- {
		suffix[i] = mulRight(suffix[i+1].Clone(), elems[i].matrix(params), elems[i].qubits, t.N)
	}
	prefix := linalg.Identity(dim)
	var tau float64
	for i, e := range elems {
		if e.param < 0 {
			linalg.ApplyGateLeft(e.matrix(params), e.qubits, t.N, prefix)
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
		params[e.param] = theta
		linalg.ApplyGateLeft(e.matrix(params), e.qubits, t.N, prefix)
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

// TestSweepMatchesDense pins the site kernel to the dense formula over
// single rotations: on 1-, 2- and 3-qubit templates with up to MaxBlocks
// CX, the two kernels run 50 sweeps each from the same random angles and
// must agree on |τ| and on every angle after every sweep. Angles are
// compared modulo 2π: where an angle's optimum is ±π, atan2's branch cut
// lets rounding pick either side, and the two rotations differ only by a
// global sign. The product the sweep leaves in scratch must be U(params),
// and Unitary must match the gate.Matrix product.
func TestSweepMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maxCX := New(gateset.IBMEagle).MaxBlocks
	type structure struct {
		n     int
		pairs [][2]int
	}
	structures := []structure{{1, nil}, {2, nil}, {3, nil}}
	for _, sh := range sweepShapes {
		structures = append(structures, structure{sh.n, sh.pairs})
	}
	for len(structures) < 30 {
		n := 2 + rng.Intn(2)
		ps := pairSets(n)
		pairs := make([][2]int, rng.Intn(maxCX+1))
		for i := range pairs {
			pairs[i] = ps[rng.Intn(len(ps))]
		}
		structures = append(structures, structure{n, pairs})
	}
	for si, st := range structures {
		if len(st.pairs) > maxCX {
			t.Fatalf("structure %d has %d CX, over MaxBlocks %d", si, len(st.pairs), maxCX)
		}
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

// TestChildTemplateExtendsParent: the search warm-starts a child
// structure from its parent's angles followed by zeros, so the child's
// first NumParams(parent) angles must name the parent's sites, and the
// zero-angle U3 sites it appends must be the identity. At those angles the
// child is the parent followed by the appended CX.
func TestChildTemplateExtendsParent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range sweepShapes {
		for _, p := range pairSets(sh.n) {
			parent := NewTemplate(sh.n, sh.pairs)
			child := NewTemplate(sh.n, append(append([][2]int{}, sh.pairs...), p))
			if child.NumParams() != parent.NumParams()+6 {
				t.Fatalf("%s + %v: child has %d angles, parent %d", sh.name, p, child.NumParams(), parent.NumParams())
			}
			warm := randomAngles(parent.NumParams(), rng)
			params := make([]float64, child.NumParams())
			copy(params, warm)
			want := parent.Unitary(warm)
			linalg.ApplyGateLeft(gate.Matrix(gate.NewCX(p[0], p[1])), p[:], sh.n, want)
			if d := linalg.MaxAbsDiff(child.Unitary(params), want); d > 1e-12 {
				t.Fatalf("%s + %v: warm-started child is %g from parent·CX", sh.name, p, d)
			}
		}
	}
}

// sweepShapes are the kernel benchmark's templates, at the depths the
// resynthesis traffic uses: 3q-4cx is the historical BenchmarkSweep3Q
// fixture, and failing 3-qubit calls at ceilings 4 and 6 dominate
// synthesis time.
var sweepShapes = []struct {
	name  string
	n     int
	pairs [][2]int
}{
	{"2q-3cx", 2, [][2]int{{0, 1}, {0, 1}, {0, 1}}},
	{"3q-4cx", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}}},
	{"3q-6cx", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}, {1, 2}, {0, 2}}},
	{"3q-8cx", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}, {1, 2}, {0, 2}, {0, 1}, {1, 2}}},
}

// sweepFixture is a template on n qubits with the given CX pairs at
// random angles, a random target and its adjoint. The 3q-4cx shape has 15
// sites (33 angles and 4 CX), one W block each.
func sweepFixture(n int, pairs [][2]int) (*Template, linalg.Matrix, linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(8))
	tpl := NewTemplate(n, pairs)
	target := circuit.Random(n, 24, circuit.DefaultTestVocab, rng).Unitary()
	return tpl, target, linalg.Adjoint(target), randomAngles(tpl.NumParams(), rng)
}

func TestSweepZeroAlloc(t *testing.T) {
	tpl, _, adj, params := sweepFixture(3, sweepShapes[1].pairs)
	tpl.sweep(adj, params) // allocates the template's scratch
	if allocs := testing.AllocsPerRun(20, func() { tpl.sweep(adj, params) }); allocs != 0 {
		t.Errorf("sweep: %v allocs/op, want 0", allocs)
	}
	for n := 1; n <= 3; n++ {
		var pairs [][2]int
		if n > 1 {
			pairs = [][2]int{{0, n - 1}, {0, 1}}
		}
		tpl, target, _, params := sweepFixture(n, pairs)
		tpl.Distance(target, params) // allocates the template's scratch
		if allocs := testing.AllocsPerRun(20, func() { tpl.Distance(target, params) }); allocs != 0 {
			t.Errorf("Distance, %d qubits: %v allocs/op, want 0", n, allocs)
		}
	}
}

// BenchmarkSweep times one coordinate-ascent sweep per template shape.
func BenchmarkSweep(b *testing.B) {
	for _, sh := range sweepShapes {
		b.Run(sh.name, func(b *testing.B) {
			tpl, _, adj, params := sweepFixture(sh.n, sh.pairs)
			tpl.sweep(adj, params)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tpl.sweep(adj, params)
			}
		})
	}
}
