// Package numeric implements BQSKit-style bottom-up synthesis for
// continuous gate sets: template circuits made of CX gates and U3 sites,
// instantiated by exact site-by-site ascent on the Hilbert–Schmidt
// overlap, searched structure-by-structure in increasing two-qubit gate
// count up to a ceiling. Resynthesis passes the replaced block's two-qubit
// count as that ceiling (Synthesizer.SynthesizeBounded), so the search
// never climbs past what the block already costs.
//
// A U3 site carries three angles, U3 = Rz(φ)·Ry(θ)·Rz(λ), but the kernel
// treats it as one SU(2) matrix. The overlap is linear in that 2×2 matrix,
// so one 2×2 environment per site, read once per sweep, fixes the site's
// optimum: the environment's polar factor, in closed form (see solve.go).
// Applying the site to a 2^N × 2^N matrix is one row operation. A start
// ends once three sweeps in a row each gain less than 0.1% in distance;
// angles are read out only when a start ends.
package numeric

import (
	"math"
	"math/cmplx"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// site is one position of a template: a U3 on qubit q[0], or a fixed CX
// with control q[0] and target q[1].
type site struct {
	cx bool
	q  [2]int
}

// Template is a parameterized circuit skeleton on n qubits. Its U3 sites
// own three consecutive parameter slots each, λ, θ, φ, in site order. It
// owns the scratch space of its instantiation kernel, so one template must
// not be used from two goroutines at once.
type Template struct {
	N      int
	Sites  []site
	NumCX  int
	nparam int

	// Kernel scratch, allocated on first use. w holds one d×d block per
	// site, W_jᵀ (see sweepSites), the last of them the target block; r
	// holds the running prefix product, which is U when sweepSites or
	// unitaryScratch returns; g holds each U3 site's SU(2) pair.
	w []complex128
	r []complex128
	g []su2
}

// NewTemplate builds the standard bottom-up skeleton: a U3 on every qubit,
// then for each pair in pairs a CX followed by a U3 on each of its qubits.
// Appending a pair appends sites and parameter slots, so a parent's
// parameters are a prefix of its child's.
func NewTemplate(n int, pairs [][2]int) *Template {
	t := &Template{N: n}
	for q := 0; q < n; q++ {
		t.addU3(q)
	}
	for _, p := range pairs {
		t.Sites = append(t.Sites, site{cx: true, q: p})
		t.NumCX++
		t.addU3(p[0])
		t.addU3(p[1])
	}
	return t
}

func (t *Template) addU3(q int) {
	t.Sites = append(t.Sites, site{q: [2]int{q}})
	t.nparam += 3
}

// NumParams returns the number of free angles.
func (t *Template) NumParams() int { return t.nparam }

// Unitary evaluates the template at the given parameters as a fresh matrix.
func (t *Template) Unitary(params []float64) linalg.Matrix {
	u := linalg.Identity(1 << t.N)
	t.product(params, u.Data)
	return u
}

// unitaryScratch evaluates the template into its own scratch and returns a
// view of it, valid until the template's next kernel call.
func (t *Template) unitaryScratch(params []float64) linalg.Matrix {
	t.ensureScratch()
	setIdentity(t.r, 1<<t.N)
	t.product(params, t.r)
	return linalg.Matrix{N: 1 << t.N, Data: t.r}
}

// product left-multiplies every site, in execution order, onto the
// 2^N × 2^N row-major matrix m in place.
//
//guoq:hotpath
func (t *Template) product(params []float64, m []complex128) {
	d := 1 << t.N
	pi := 0
	for _, s := range t.Sites {
		if s.cx {
			t.apply(s, m, m)
			continue
		}
		g := u3(params[pi], params[pi+1], params[pi+2])
		pi += 3
		rotate(m, m, d, t.mask(s.q[0]), g.a, g.b)
	}
}

// ensureScratch allocates the kernel scratch on the template's first use.
func (t *Template) ensureScratch() {
	dd := 1 << (2 * t.N)
	if len(t.r) != dd {
		t.w = make([]complex128, len(t.Sites)*dd)
		t.r = make([]complex128, dd)
		t.g = make([]su2, len(t.Sites))
	}
}

// mask returns the row-index bit of qubit q.
func (t *Template) mask(q int) int { return 1 << linalg.BitPos(t.N, q) }

// apply writes CX·src into dst for the CX site s, expanded to 2^N qubits.
// Both matrices are 2^N × 2^N row-major, and dst may be src. A CX swaps
// the rows whose control bit is set, and CXᵀ = CX.
//
//guoq:hotpath
func (t *Template) apply(s site, dst, src []complex128) {
	d := 1 << t.N
	mask, tmask := t.mask(s.q[0]), t.mask(s.q[1])
	for l := 0; l < d; l++ {
		if l&mask == 0 {
			copy(dst[l*d:(l+1)*d], src[l*d:(l+1)*d])
			continue
		}
		if l&tmask != 0 {
			continue
		}
		x0, x1 := rowPair(src, d, l, tmask)
		y0, y1 := rowPair(dst, d, l, tmask)
		for j, v := range x0 {
			y0[j], y1[j] = x1[j], v
		}
	}
}

// su2 is a U3 site as the SU(2) matrix [[a, −b̄], [b, ā]].
type su2 struct{ a, b complex128 }

// u3 returns Rz(φ)·Ry(θ)·Rz(λ) as an SU(2) pair: a = cos(θ/2)·e^{−i(φ+λ)/2}
// and b = sin(θ/2)·e^{i(φ−λ)/2}.
func u3(lambda, theta, phi float64) su2 {
	s, c := math.Sincos(theta / 2)
	sa, ca := math.Sincos((phi + lambda) / 2)
	sb, cb := math.Sincos((phi - lambda) / 2)
	return su2{complex(c*ca, -c*sa), complex(s*cb, s*sb)}
}

// angles returns the ZYZ angles λ, θ, φ of g, which u3 maps back to g up
// to rounding: θ/2 = atan2(|b|, |a|), arg a = −(φ+λ)/2, arg b = (φ−λ)/2.
func (g su2) angles() (lambda, theta, phi float64) {
	pa, pb := cmplx.Phase(g.a), cmplx.Phase(g.b)
	return -pa - pb, 2 * math.Atan2(cmplx.Abs(g.b), cmplx.Abs(g.a)), pb - pa
}

// rotate writes (g ⊗ I)·src into dst, where g = [[a, −b̄], [b, ā]] acts on
// the qubit whose row bit is mask. Both matrices are d×d row-major, and
// dst may be src. g mixes each pair of rows that differ in that bit, so
// one call costs O(d²) where a dense product would cost O(d³).
//
//guoq:hotpath
func rotate(dst, src []complex128, d, mask int, a, b complex128) {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	for l := 0; l < d; l++ {
		if l&mask != 0 {
			continue
		}
		x0, x1 := rowPair(src, d, l, mask)
		y0, y1 := rowPair(dst, d, l, mask)
		x1 = x1[:len(x0)]
		y0, y1 = y0[:len(x0)], y1[:len(x0)]
		for j, u := range x0 {
			v := x1[j]
			ur, ui, vr, vi := real(u), imag(u), real(v), imag(v)
			y0[j] = complex(ar*ur-ai*ui-br*vr-bi*vi, ar*ui+ai*ur-br*vi+bi*vr)
			y1[j] = complex(br*ur-bi*ui+ar*vr+ai*vi, br*ui+bi*ur+ar*vi-ai*vr)
		}
	}
}

// rowPair returns rows l and l|mask of the d×d row-major matrix m.
func rowPair(m []complex128, d, l, mask int) ([]complex128, []complex128) {
	l1 := l | mask
	return m[l*d : (l+1)*d], m[l1*d : (l1+1)*d]
}

func setIdentity(m []complex128, d int) {
	clear(m)
	for i := 0; i < d; i++ {
		m[i*d+i] = 1
	}
}

// Instantiate renders the template at the given parameters as a circuit of
// rz/ry/cx gates, each U3 site as rz(λ), ry(θ), rz(φ) in execution order,
// dropping (near-)zero rotations.
func (t *Template) Instantiate(params []float64) *circuit.Circuit {
	c := circuit.New(t.N)
	pi := 0
	for _, s := range t.Sites {
		if s.cx {
			c.Append(gate.NewCX(s.q[0], s.q[1]))
			continue
		}
		for _, name := range [3]gate.Name{gate.Rz, gate.Ry, gate.Rz} {
			th := linalg.NormAngle(params[pi])
			pi++
			if math.Abs(th) > 1e-10 {
				c.Append(gate.New(name, []int{s.q[0]}, []float64{th}))
			}
		}
	}
	return c
}

// pairSets enumerates the two-qubit interaction pairs available on n qubits
// (all-to-all connectivity, as in the paper's setting where optimizers may
// change connectivity).
func pairSets(n int) [][2]int {
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}
