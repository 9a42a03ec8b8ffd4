// Package linalg provides the dense complex linear algebra used throughout
// the optimizer: unitary matrices, Kronecker products, the Hilbert–Schmidt
// distance of Def. 3.2, and efficient application of small gate matrices to
// large state matrices.
//
// Matrices are square, dense, row-major complex128. Dimensions are always
// powers of two (2^n for an n-qubit operator). The package has no external
// dependencies.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense square complex matrix of dimension N stored row-major.
// The zero value is not useful; construct with New, Identity, or FromRows.
type Matrix struct {
	N    int
	Data []complex128
}

// New returns an N×N zero matrix.
func New(n int) Matrix {
	return Matrix{N: n, Data: make([]complex128, n*n)}
}

// Identity returns the N×N identity matrix.
func Identity(n int) Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must have equal length
// to the number of rows; FromRows panics otherwise, since it is only used
// with literal data.
func FromRows(rows [][]complex128) Matrix {
	n := len(rows)
	m := New(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("linalg: FromRows: row %d has %d entries, want %d", i, len(r), n))
		}
		copy(m.Data[i*n:(i+1)*n], r)
	}
	return m
}

// At returns element (i, j).
func (m Matrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	c := Matrix{N: m.N, Data: make([]complex128, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// Mul returns the matrix product a·b. It panics if dimensions differ, which
// indicates a programming error in gate bookkeeping.
func Mul(a, b Matrix) Matrix {
	if a.N != b.N {
		panic(fmt.Sprintf("linalg: Mul: dimension mismatch %d vs %d", a.N, b.N))
	}
	out := New(a.N)
	mulInto(out.Data, a.Data, b.Data, a.N)
	return out
}

// mulInto accumulates the n×n product a·b into out, which must be zero.
// Mul and Mat2.Mul share it, so their products agree bit for bit.
func mulInto(out, a, b []complex128, n int) {
	for i := 0; i < n; i++ {
		arow := a[i*n : (i+1)*n]
		orow := out[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += aik * brow[j]
			}
		}
	}
}

// MulAll multiplies a sequence of matrices left to right:
// MulAll(a, b, c) = a·b·c. It panics on an empty argument list.
func MulAll(ms ...Matrix) Matrix {
	if len(ms) == 0 {
		panic("linalg: MulAll of no matrices")
	}
	acc := ms[0]
	for _, m := range ms[1:] {
		acc = Mul(acc, m)
	}
	return acc
}

// Add returns a + b.
func Add(a, b Matrix) Matrix {
	if a.N != b.N {
		panic("linalg: Add: dimension mismatch")
	}
	out := New(a.N)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a − b.
func Sub(a, b Matrix) Matrix {
	if a.N != b.N {
		panic("linalg: Sub: dimension mismatch")
	}
	out := New(a.N)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s·m.
func Scale(s complex128, m Matrix) Matrix {
	out := New(m.N)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// Adjoint returns the conjugate transpose m†.
func Adjoint(m Matrix) Matrix {
	n := m.N
	out := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*n+i] = cmplx.Conj(m.Data[i*n+j])
		}
	}
	return out
}

// Trace returns the sum of diagonal entries.
func Trace(m Matrix) complex128 {
	var t complex128
	for i := 0; i < m.N; i++ {
		t += m.Data[i*m.N+i]
	}
	return t
}

// TraceAdjointMul returns Tr(a†·b) without materializing the product. This is
// the inner product that the Hilbert–Schmidt distance is built from.
func TraceAdjointMul(a, b Matrix) complex128 {
	if a.N != b.N {
		panic("linalg: TraceAdjointMul: dimension mismatch")
	}
	return traceAdjointMul(a.Data, b.Data)
}

func traceAdjointMul(a, b []complex128) complex128 {
	var t complex128
	for i := range a {
		t += cmplx.Conj(a[i]) * b[i]
	}
	return t
}

// Kron returns the Kronecker (tensor) product a ⊗ b.
func Kron(a, b Matrix) Matrix {
	n := a.N * b.N
	out := New(n)
	for ai := 0; ai < a.N; ai++ {
		for aj := 0; aj < a.N; aj++ {
			av := a.Data[ai*a.N+aj]
			if av == 0 {
				continue
			}
			for bi := 0; bi < b.N; bi++ {
				row := (ai*b.N + bi) * n
				boff := bi * b.N
				col0 := aj * b.N
				for bj := 0; bj < b.N; bj++ {
					out.Data[row+col0+bj] = av * b.Data[boff+bj]
				}
			}
		}
	}
	return out
}

// KronAll returns the tensor product of the given matrices, left to right.
func KronAll(ms ...Matrix) Matrix {
	if len(ms) == 0 {
		panic("linalg: KronAll of no matrices")
	}
	acc := ms[0]
	for _, m := range ms[1:] {
		acc = Kron(acc, m)
	}
	return acc
}

// MaxAbsDiff returns the largest elementwise |a_ij − b_ij|.
func MaxAbsDiff(a, b Matrix) float64 {
	if a.N != b.N {
		return math.Inf(1)
	}
	var worst float64
	for i := range a.Data {
		d := cmplx.Abs(a.Data[i] - b.Data[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Equal reports whether a and b agree elementwise within tol.
func Equal(a, b Matrix, tol float64) bool {
	return a.N == b.N && MaxAbsDiff(a, b) <= tol
}

// IsUnitary reports whether m†·m is the identity within tol.
func IsUnitary(m Matrix, tol float64) bool {
	return Equal(Mul(Adjoint(m), m), Identity(m.N), tol)
}

// HSDistance is the Hilbert–Schmidt distance of Def. 3.2:
//
//	Δ(U, U′) = sqrt(1 − |Tr(U†·U′)|² / N²)
//
// It is zero iff U and U′ agree up to a global phase, which makes it the
// natural distance for circuit equivalence modulo phase (Def. 3.3).
func HSDistance(u, up Matrix) float64 {
	if u.N != up.N {
		return 1
	}
	return hsDistance(u.Data, up.Data, u.N)
}

// hsDistance is HSDistance on the row-major data of two N×N matrices;
// Mat2.EqualUpToPhase shares it.
func hsDistance(u, up []complex128, dim int) float64 {
	t := traceAdjointMul(u, up)
	n := float64(dim)
	absTau := cmplx.Abs(t) / n
	if absTau > 0.5 {
		// Near equivalence the direct formula 1 − |τ|² suffers catastrophic
		// cancellation (precision floor ≈ 1e-8 after the sqrt). Use the
		// identity 1 − |τ| = ‖U − e^{iφ}U′‖²_F / (2N) with φ = arg Tr(U†U′),
		// which is computed from elementwise differences and stays accurate
		// down to machine epsilon. Then Δ² = (1 − |τ|)(1 + |τ|).
		ph := cmplx.Exp(complex(0, -cmplx.Phase(t)))
		var fro float64
		for i := range u {
			d := u[i] - ph*up[i]
			fro += real(d)*real(d) + imag(d)*imag(d)
		}
		oneMinus := fro / (2 * n)
		return math.Sqrt(oneMinus * (1 + absTau))
	}
	v := 1 - absTau*absTau
	if v < 0 { // clamp tiny negative round-off
		v = 0
	}
	return math.Sqrt(v)
}

// EqualUpToPhase reports whether u = e^{iφ}·up for some φ, within tol on the
// Hilbert–Schmidt distance.
func EqualUpToPhase(u, up Matrix, tol float64) bool {
	return u.N == up.N && HSDistance(u, up) <= tol
}

// String renders the matrix with 4 decimal places, for debugging and tests.
func (m Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%7.4f%+7.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
