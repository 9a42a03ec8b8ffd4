package linalg

// Mat2 is a 2×2 complex matrix stored row-major by value: the
// allocation-free form of a single-qubit gate's unitary. Its product and
// distance share Mul's and HSDistance's kernels, so they agree bit for bit
// with the same computation on a Matrix.
type Mat2 [4]complex128

// Mul returns the product a·b.
func (a Mat2) Mul(b Mat2) Mat2 {
	var out Mat2
	mulInto(out[:], a[:], b[:], 2)
	return out
}

// EqualUpToPhase reports whether m = e^{iφ}·o for some φ, within tol on the
// Hilbert–Schmidt distance, exactly as EqualUpToPhase does on Matrix.
func (m Mat2) EqualUpToPhase(o Mat2, tol float64) bool {
	return hsDistance(m[:], o[:], 2) <= tol
}

// Matrix returns m as a freshly allocated Matrix.
func (m Mat2) Matrix() Matrix {
	return Matrix{N: 2, Data: []complex128{m[0], m[1], m[2], m[3]}}
}
