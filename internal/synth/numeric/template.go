// Package numeric implements BQSKit-style bottom-up synthesis for
// continuous gate sets: template circuits made of CX gates and
// parameterized single-qubit rotations, instantiated by Rotosolve-style
// exact coordinate ascent on the Hilbert–Schmidt overlap, searched
// structure-by-structure in increasing two-qubit gate count up to a
// ceiling. Resynthesis passes the replaced block's two-qubit count as that
// ceiling (Synthesizer.SynthesizeBounded), so the search never climbs past
// what the block already costs.
package numeric

import (
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// elem is one element of a template: either a fixed CX or a parameterized
// rotation (rz/ry) on one qubit. U3 sites are expanded to rz·ry·rz so every
// parameter is a single Pauli-rotation angle, which makes each coordinate of
// the overlap an exact sinusoid (see solve.go).
type elem struct {
	fixed  bool
	name   gate.Name // cx for fixed; rz or ry for parameterized
	qubits []int
}

// Template is a parameterized circuit skeleton on n qubits. It owns the
// scratch space of its instantiation kernel, so one template must not be
// used from two goroutines at once.
type Template struct {
	N      int
	Elems  []elem
	NumCX  int
	nparam int

	// Kernel scratch, allocated on first use. w holds one d×d block per
	// element, W_iᵀ (see sweep); r holds the running prefix product, which
	// is U(θ) when sweep or unitaryScratch returns.
	w []complex128
	r []complex128
}

// NewTemplate builds the standard bottom-up skeleton: a U3 on every qubit,
// then for each pair in pairs a CX followed by a U3 on each of its qubits.
func NewTemplate(n int, pairs [][2]int) *Template {
	t := &Template{N: n}
	for q := 0; q < n; q++ {
		t.addU3(q)
	}
	for _, p := range pairs {
		t.Elems = append(t.Elems, elem{fixed: true, name: gate.CX, qubits: []int{p[0], p[1]}})
		t.NumCX++
		t.addU3(p[0])
		t.addU3(p[1])
	}
	return t
}

func (t *Template) addU3(q int) {
	// U3(θ,φ,λ) ∝ Rz(φ)·Ry(θ)·Rz(λ): execution order rz(λ), ry(θ), rz(φ).
	t.Elems = append(t.Elems,
		elem{name: gate.Rz, qubits: []int{q}},
		elem{name: gate.Ry, qubits: []int{q}},
		elem{name: gate.Rz, qubits: []int{q}},
	)
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

// product left-multiplies every element, in execution order, onto the
// 2^N × 2^N row-major matrix m in place.
//
//guoq:hotpath
func (t *Template) product(params []float64, m []complex128) {
	pi := 0
	for _, e := range t.Elems {
		c, s := 1.0, 0.0
		if !e.fixed {
			s, c = math.Sincos(params[pi] / 2)
			pi++
		}
		t.apply(e, c, s, m, m)
	}
}

// ensureScratch allocates the kernel scratch on the template's first use.
func (t *Template) ensureScratch() {
	dd := 1 << (2 * t.N)
	if len(t.r) != dd {
		t.w = make([]complex128, len(t.Elems)*dd)
		t.r = make([]complex128, dd)
	}
}

// apply writes M·src into dst, where M is element e expanded to 2^N
// qubits and, for a rotation, c and s are the cosine and sine of half its
// angle. Both matrices are 2^N × 2^N row-major, and dst may be src. M acts
// on rows only: rz scales them, ry mixes pairs of them and cx swaps them,
// so one call costs O(d²) where a dense product would cost O(d³).
//
//guoq:hotpath
func (t *Template) apply(e elem, c, s float64, dst, src []complex128) {
	d := 1 << t.N
	mask := 1 << linalg.BitPos(t.N, e.qubits[0])
	switch e.name {
	case gate.CX:
		tmask := 1 << linalg.BitPos(t.N, e.qubits[1])
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
	case gate.Rz:
		p0, p1 := complex(c, -s), complex(c, s)
		for l := 0; l < d; l++ {
			if l&mask != 0 {
				continue
			}
			x0, x1 := rowPair(src, d, l, mask)
			y0, y1 := rowPair(dst, d, l, mask)
			for j, v := range x0 {
				y0[j], y1[j] = p0*v, p1*x1[j]
			}
		}
	case gate.Ry:
		for l := 0; l < d; l++ {
			if l&mask != 0 {
				continue
			}
			x0, x1 := rowPair(src, d, l, mask)
			y0, y1 := rowPair(dst, d, l, mask)
			for j, v := range x0 {
				u := x1[j]
				y0[j] = complex(c*real(v)-s*real(u), c*imag(v)-s*imag(u))
				y1[j] = complex(s*real(v)+c*real(u), s*imag(v)+c*imag(u))
			}
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
// rz/ry/cx gates, dropping (near-)zero rotations.
func (t *Template) Instantiate(params []float64) *circuit.Circuit {
	c := circuit.New(t.N)
	pi := 0
	for _, e := range t.Elems {
		if e.fixed {
			c.Append(gate.New(e.name, append([]int{}, e.qubits...), nil))
			continue
		}
		th := linalg.NormAngle(params[pi])
		pi++
		if math.Abs(th) > 1e-10 {
			c.Append(gate.New(e.name, append([]int{}, e.qubits...), []float64{th}))
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
