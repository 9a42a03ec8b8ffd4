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

// sweep is one kernel sweep in angles: it loads the sites from params,
// sweeps, and reads the updated angles back into params, returning |τ|.
// adj is the target's adjoint.
func (t *Template) sweep(adj linalg.Matrix, params []float64) float64 {
	t.setTarget(adj)
	t.loadAngles(params)
	tau := t.sweepSites()
	t.readAngles(params)
	return tau
}

// The dense reference kernel: the polar update with every matrix built
// from gate.Matrix, each U3 site expanded into its own rz, ry and rz
// gates, and each environment read from full d×d products. The site
// kernel in solve.go must agree with it up to float rounding.

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

// denseSweep is one pass of the polar update over the U3 sites of the
// expanded template. A site's environment is T[x][y] = Tr(L·(E_xy ⊗
// I)·R), with L = A†·S the dense suffix product after the site, R the
// prefix before it and E_xy the 2×2 matrix unit, so that f(g) =
// Σ T[x][y]·g[x][y]. It checks each update's optimum without the closed
// form: |f| must be the nuclear norm of M = conj(T), from the eigenvalues
// of M†M, and no random SU(2) from rng may beat it.
func denseSweep(t *testing.T, tpl *Template, adj linalg.Matrix, params []float64, rng *rand.Rand) float64 {
	t.Helper()
	dim := 1 << tpl.N
	elems := expand(tpl)
	k := len(elems)
	suffix := make([]linalg.Matrix, k+1)
	suffix[k] = linalg.Identity(dim)
	for i := k - 1; i >= 0; i-- {
		suffix[i] = mulRight(suffix[i+1].Clone(), elems[i].matrix(params), elems[i].qubits, tpl.N)
	}
	prefix := linalg.Identity(dim)
	var tau float64
	for i := 0; i < k; {
		e := elems[i]
		if e.param < 0 {
			linalg.ApplyGateLeft(e.matrix(params), e.qubits, tpl.N, prefix)
			i++
			continue
		}
		// elems[i : i+3] are the site's rz(λ), ry(θ), rz(φ).
		L := linalg.Mul(adj, suffix[i+3])
		var env [2][2]complex128
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				unit := linalg.New(2)
				unit.Set(x, y, 1)
				pr := prefix.Clone()
				linalg.ApplyGateLeft(unit, e.qubits, tpl.N, pr)
				env[x][y] = linalg.Trace(linalg.Mul(L, pr))
			}
		}
		g, n := polar(env[0][0], env[0][1], env[1][0], env[1][1])
		if n > 0 {
			params[e.param], params[e.param+1], params[e.param+2] = g.angles()
		}
		f := cmplx.Abs(siteOverlap(env, u3(params[e.param], params[e.param+1], params[e.param+2])))
		if nuc := nuclearNorm(env); math.Abs(f-nuc) > 1e-12*math.Max(1, nuc) {
			t.Fatalf("site at angle %d: |f| %.17g after the update, nuclear norm %.17g", e.param, f, nuc)
		}
		for s := 0; s < 8; s++ {
			if h := cmplx.Abs(siteOverlap(env, randomSU2(rng))); h > f+1e-12*math.Max(1, f) {
				t.Fatalf("site at angle %d: a random SU(2) reaches |f| %.17g, the update %.17g", e.param, h, f)
			}
		}
		for _, r := range elems[i : i+3] {
			linalg.ApplyGateLeft(r.matrix(params), r.qubits, tpl.N, prefix)
		}
		tau = f / float64(dim)
		i += 3
	}
	return tau
}

// siteOverlap returns f(g) = Σ T[x][y]·g[x][y] for g = [[a, −b̄], [b, ā]].
func siteOverlap(env [2][2]complex128, g su2) complex128 {
	return env[0][0]*g.a - env[0][1]*cmplx.Conj(g.b) + env[1][0]*g.b + env[1][1]*cmplx.Conj(g.a)
}

// nuclearNorm returns σ₁+σ₂ for M = conj(T) from the eigenvalues of the
// Hermitian M†M: λ₁ from the quadratic formula, and λ₂ = det(M†M)/λ₁ with
// det(M†M) = |det M|², which does not cancel when M is near rank 1.
func nuclearNorm(env [2][2]complex128) float64 {
	m00, m01 := cmplx.Conj(env[0][0]), cmplx.Conj(env[0][1])
	m10, m11 := cmplx.Conj(env[1][0]), cmplx.Conj(env[1][1])
	sq := func(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }
	h00, h11 := sq(m00)+sq(m10), sq(m01)+sq(m11)
	h01 := cmplx.Conj(m00)*m01 + cmplx.Conj(m10)*m11
	l1 := (h00 + h11 + math.Sqrt((h00-h11)*(h00-h11)+4*sq(h01))) / 2
	if l1 == 0 {
		return 0
	}
	l2 := sq(m00*m11-m01*m10) / l1
	return math.Sqrt(l1) + math.Sqrt(l2)
}

// randomSU2 returns a Haar-random site.
func randomSU2(rng *rand.Rand) su2 {
	a := complex(rng.NormFloat64(), rng.NormFloat64())
	b := complex(rng.NormFloat64(), rng.NormFloat64())
	r := complex(math.Sqrt(real(a)*real(a)+imag(a)*imag(a)+real(b)*real(b)+imag(b)*imag(b)), 0)
	return su2{a / r, b / r}
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

// sitesDiffer returns the largest distance between the U3 sites of two
// angle vectors, each site compared up to its sign: g and −g give the
// same |f|, and rounding at the branch cut of √z may pick either.
func sitesDiffer(a, b []float64) float64 {
	var worst float64
	for i := 0; i+2 < len(a); i += 3 {
		x, y := u3(a[i], a[i+1], a[i+2]), u3(b[i], b[i+1], b[i+2])
		d := math.Min(cmplx.Abs(x.a-y.a)+cmplx.Abs(x.b-y.b), cmplx.Abs(x.a+y.a)+cmplx.Abs(x.b+y.b))
		worst = math.Max(worst, d)
	}
	return worst
}

// TestSweepMatchesDense pins the site kernel to the dense polar update: on
// 1-, 2- and 3-qubit templates with up to MaxBlocks CX, the two kernels
// run 50 sweeps each from the same random angles and must agree on |τ|
// and on every site after every sweep, while the dense one checks each
// update's optimum. The product the sweep leaves in scratch must be
// U(params), and Unitary must match the gate.Matrix product.
func TestSweepMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probe := rand.New(rand.NewSource(17))
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
			td := denseSweep(t, tpl, adj, dense, probe)
			if math.Abs(tf-td) > 1e-12 {
				t.Fatalf("structure %d %v, sweep %d: |τ| %.17g, dense %.17g", si, st.pairs, s, tf, td)
			}
			if d := sitesDiffer(fast, dense); d > 1e-9 {
				t.Fatalf("structure %d %v, sweep %d: a site is %g from the dense one", si, st.pairs, s, d)
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

// FuzzSiteUpdate drives the polar update with raw 2×2 environments and an
// incoming site given by its angles. The update must stay finite and in
// SU(2), must never lower |f| below the incoming site's, must reach n =
// |f|, and its read-out angles must give it back. The kernel's
// environments have entries of modulus at most 2^N, nonzero ones far from
// the float underflow range, so inputs above 1e6 or with every entry below
// 1e-100 are skipped, as are angles beyond ±1e3.
func FuzzSiteUpdate(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 1.1, -0.7)       // zero
	f.Add(1.0, 0.5, 2.0, -1.0, -0.625, 0.0, -0.75, 1.0, 0.3, 1.1, -0.7) // rank 1
	f.Add(1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 1.0+1e-13, 0.0, -2.0, 0.4, 2.9) // near rank 1
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.3, 1.1, -0.7)      // det −2: z = −1
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)        // X: z = −1
	f.Add(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0)        // i·I: z = −1
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1e-9, 0.3, 1.1, -0.7)     // z just above −1
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1e-9, 0.3, 1.1, -0.7)    // z just below −1
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)        // optimum already
	f.Add(0.3, -1.2, 2.2, 0.7, -0.4, 1.9, 0.8, -0.1, 2.5, -1.3, 0.2)    // generic
	f.Fuzz(func(t *testing.T, r00, i00, r01, i01, r10, i10, r11, i11, lambda, theta, phi float64) {
		env := [2][2]complex128{{complex(r00, i00), complex(r01, i01)}, {complex(r10, i10), complex(r11, i11)}}
		var scale float64
		for _, row := range env {
			for _, v := range row {
				scale = math.Max(scale, cmplx.Abs(v))
			}
		}
		if !(scale <= 1e6) || scale > 0 && scale < 1e-100 {
			t.Skip()
		}
		for _, a := range []float64{lambda, theta, phi} {
			if !(math.Abs(a) <= 1e3) {
				t.Skip()
			}
		}
		old := u3(lambda, theta, phi)
		g, n := polar(env[0][0], env[0][1], env[1][0], env[1][1])
		if n == 0 {
			g = old // the kernel keeps the site
		}
		for _, v := range []complex128{g.a, g.b} {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("env %v: update (%v, %v) is not finite", env, g.a, g.b)
			}
		}
		if d := real(g.a)*real(g.a) + imag(g.a)*imag(g.a) + real(g.b)*real(g.b) + imag(g.b)*imag(g.b) - 1; math.Abs(d) > 1e-12 {
			t.Fatalf("env %v: update (%v, %v) is off SU(2) by %g", env, g.a, g.b, d)
		}
		fOld, fNew := cmplx.Abs(siteOverlap(env, old)), cmplx.Abs(siteOverlap(env, g))
		if fNew < fOld-1e-12*scale {
			t.Fatalf("env %v: the update lowers |f| from %.17g to %.17g", env, fOld, fNew)
		}
		if math.Abs(fNew-n) > 1e-12*scale {
			t.Fatalf("env %v: |f| %.17g at the update, n %.17g", env, fNew, n)
		}
		back := u3(g.angles())
		if d := cmplx.Abs(back.a-g.a) + cmplx.Abs(back.b-g.b); d > 1e-12 {
			t.Fatalf("env %v: read-out angles give (%v, %v) for (%v, %v)", env, back.a, back.b, g.a, g.b)
		}
	})
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

// BenchmarkSweep times one kernel sweep per template shape: the polar
// update at every U3 site, with the target block and the sites loaded
// before the timer starts, so no angle is converted inside the loop.
func BenchmarkSweep(b *testing.B) {
	for _, sh := range sweepShapes {
		b.Run(sh.name, func(b *testing.B) {
			tpl, _, adj, params := sweepFixture(sh.n, sh.pairs)
			tpl.setTarget(adj)
			tpl.loadAngles(params)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tpl.sweepSites()
			}
		})
	}
}
