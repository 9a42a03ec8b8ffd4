package numeric

import (
	"math"
	"math/cmplx"

	"github.com/guoq-dev/guoq/internal/linalg"
)

// Shende–Bullock–Markov CNOT-count classification for two-qubit unitaries
// via the γ-trace local invariants.
//
// For U ∈ SU(4) let γ(U) = U·(Y⊗Y)·Uᵀ·(Y⊗Y) and
//
//	t1 = tr γ,   t2 = tr γ².
//
// t1 and t2 are invariant under local (single-qubit) gates, and the minimal
// number of CX gates needed to implement U with arbitrary single-qubit
// gates is (SBM 2004, Prop. III.1–3):
//
//	0  iff  t1 = ±4           (γ = ±I; e.g. identity, local gates)
//	1  iff  t1 = 0, t2 = −4   (γ eigenvalues {i,i,−i,−i}; e.g. CX, CZ)
//	2  iff  Im t1 = 0         (e.g. XX+ZZ interactions; SWAP fails: t1 = ±4i)
//	3  otherwise              (e.g. SWAP)
//
// A general U ∈ U(4) is first normalized by det(U)^{1/4}; the fourth-root
// branch only flips the sign of t1 (and leaves t2 unchanged), which none of
// the conditions above distinguish.
//
// The numeric synthesizer uses this to start its 2-qubit structure search
// at exactly the required CX count — no wasted optimization at infeasible
// depths and no overshooting.

// yy is (Y ⊗ Y).
var yy = linalg.FromRows([][]complex128{
	{0, 0, 0, -1},
	{0, 0, 1, 0},
	{0, 1, 0, 0},
	{-1, 0, 0, 0},
})

// gammaTraces computes (t1, t2) for a 4×4 unitary after SU(4)
// normalization.
func gammaTraces(u linalg.Matrix) (complex128, complex128) {
	phase := cmplx.Pow(det4(u), 0.25)
	us := linalg.Scale(1/phase, u)
	gamma := linalg.MulAll(us, yy, transpose(us), yy)
	t1 := linalg.Trace(gamma)
	t2 := linalg.Trace(linalg.Mul(gamma, gamma))
	return t1, t2
}

func transpose(m linalg.Matrix) linalg.Matrix {
	out := linalg.New(m.N)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			out.Data[j*m.N+i] = m.Data[i*m.N+j]
		}
	}
	return out
}

// MinCXCount returns the minimal CX count (0..3) needed to implement the
// 4×4 unitary u with arbitrary single-qubit gates.
func MinCXCount(u linalg.Matrix) int {
	const tol = 1e-9
	t1, t2 := gammaTraces(u)
	switch {
	case math.Abs(math.Abs(real(t1))-4) < tol && math.Abs(imag(t1)) < tol:
		return 0
	case cmplx.Abs(t1) < tol && cmplx.Abs(t2+4) < tol:
		return 1
	case math.Abs(imag(t1)) < tol:
		return 2
	default:
		return 3
	}
}

// det4 computes the determinant of a 4×4 complex matrix by cofactor
// expansion on 2×2 minors (no pivoting needed at this size for unitaries).
func det4(m linalg.Matrix) complex128 {
	a := m.Data
	m2 := func(r0, r1, c0, c1 int) complex128 {
		return a[r0*4+c0]*a[r1*4+c1] - a[r0*4+c1]*a[r1*4+c0]
	}
	// Laplace expansion along the first two rows.
	return m2(0, 1, 0, 1)*m2(2, 3, 2, 3) -
		m2(0, 1, 0, 2)*m2(2, 3, 1, 3) +
		m2(0, 1, 0, 3)*m2(2, 3, 1, 2) +
		m2(0, 1, 1, 2)*m2(2, 3, 0, 3) -
		m2(0, 1, 1, 3)*m2(2, 3, 0, 2) +
		m2(0, 1, 2, 3)*m2(2, 3, 0, 1)
}
