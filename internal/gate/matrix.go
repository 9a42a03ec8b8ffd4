package gate

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/guoq-dev/guoq/internal/linalg"
)

// Matrix returns the unitary matrix of the gate application g in its own
// 2^arity-dimensional space (first listed qubit = most significant bit).
// Single-qubit gates read from Matrix2.
func Matrix(g Gate) linalg.Matrix {
	switch g.Name {
	case CX:
		return linalg.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
			{0, 0, 1, 0},
		})
	case CZ:
		return linalg.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, -1},
		})
	case Swap:
		return linalg.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 0, 1, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
		})
	case Rxx:
		c, s := trig(g.Params[0])
		is := -1i * s
		return linalg.FromRows([][]complex128{
			{c, 0, 0, is},
			{0, c, is, 0},
			{0, is, c, 0},
			{is, 0, 0, c},
		})
	case Rzz:
		th := g.Params[0]
		a, b := phase(-th/2), phase(th/2)
		return linalg.FromRows([][]complex128{
			{a, 0, 0, 0},
			{0, b, 0, 0},
			{0, 0, b, 0},
			{0, 0, 0, a},
		})
	case CP:
		return linalg.FromRows([][]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, phase(g.Params[0])},
		})
	case CCX:
		m := linalg.Identity(8)
		m.Set(6, 6, 0)
		m.Set(7, 7, 0)
		m.Set(6, 7, 1)
		m.Set(7, 6, 1)
		return m
	case CCZ:
		m := linalg.Identity(8)
		m.Set(7, 7, -1)
		return m
	}
	return Matrix2(g).Matrix()
}

// Matrix2 returns the 2×2 unitary of a single-qubit gate application
// without allocating. It panics for any other gate.
func Matrix2(g Gate) linalg.Mat2 {
	switch g.Name {
	case I:
		return linalg.Mat2{1, 0, 0, 1}
	case H:
		h := complex(1/math.Sqrt2, 0)
		return linalg.Mat2{h, h, h, -h}
	case X:
		return linalg.Mat2{0, 1, 1, 0}
	case Y:
		return linalg.Mat2{0, -1i, 1i, 0}
	case Z:
		return linalg.Mat2{1, 0, 0, -1}
	case S:
		return linalg.Mat2{1, 0, 0, 1i}
	case Sdg:
		return linalg.Mat2{1, 0, 0, -1i}
	case T:
		return linalg.Mat2{1, 0, 0, phase(math.Pi / 4)}
	case Tdg:
		return linalg.Mat2{1, 0, 0, phase(-math.Pi / 4)}
	case SX:
		return linalg.Mat2{0.5 + 0.5i, 0.5 - 0.5i, 0.5 - 0.5i, 0.5 + 0.5i}
	case SXdg:
		return linalg.Mat2{0.5 - 0.5i, 0.5 + 0.5i, 0.5 + 0.5i, 0.5 - 0.5i}
	case Rx:
		c, s := trig(g.Params[0])
		return linalg.Mat2{c, -1i * s, -1i * s, c}
	case Ry:
		c, s := trig(g.Params[0])
		return linalg.Mat2{c, -s, s, c}
	case Rz:
		th := g.Params[0]
		return linalg.Mat2{phase(-th / 2), 0, 0, phase(th / 2)}
	case U1:
		return linalg.Mat2{1, 0, 0, phase(g.Params[0])}
	case U2:
		p, l := g.Params[0], g.Params[1]
		inv := complex(1/math.Sqrt2, 0)
		return linalg.Mat2{inv, -inv * phase(l), inv * phase(p), inv * phase(p+l)}
	case U3:
		return u3Matrix(g.Params[0], g.Params[1], g.Params[2])
	}
	panic(fmt.Sprintf("gate: no single-qubit matrix for %q", g.Name))
}

func phase(a float64) complex128 { return cmplx.Exp(complex(0, a)) }

func trig(theta float64) (c, s complex128) {
	return complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
}

func u3Matrix(t, p, l float64) linalg.Mat2 {
	c := complex(math.Cos(t/2), 0)
	s := complex(math.Sin(t/2), 0)
	return linalg.Mat2{c, -phase(l) * s, phase(p) * s, phase(p+l) * c}
}

// Inverse returns a gate application implementing g†, expressed in the same
// vocabulary (e.g. Inverse(t) = tdg, Inverse(rz(θ)) = rz(−θ)).
func Inverse(g Gate) Gate {
	switch g.Name {
	case I, H, X, Y, Z, CX, CZ, Swap, CCX, CCZ: // self-inverse
		return g.Clone()
	case S:
		return New(Sdg, g.Qubits, nil)
	case Sdg:
		return New(S, g.Qubits, nil)
	case T:
		return New(Tdg, g.Qubits, nil)
	case Tdg:
		return New(T, g.Qubits, nil)
	case SX:
		return New(SXdg, g.Qubits, nil)
	case SXdg:
		return New(SX, g.Qubits, nil)
	case Rx, Ry, Rz, Rxx, Rzz, CP, U1:
		return New(g.Name, g.Qubits, []float64{-g.Params[0]})
	case U2:
		// U2(φ,λ)† = U3(−π/2, −λ, −φ)
		return New(U3, g.Qubits, []float64{-math.Pi / 2, -g.Params[1], -g.Params[0]})
	case U3:
		return New(U3, g.Qubits, []float64{-g.Params[0], -g.Params[2], -g.Params[1]})
	}
	panic(fmt.Sprintf("gate: Inverse: unknown gate %q", g.Name))
}

// IsTwoQubit reports whether the gate acts on exactly two qubits. Two-qubit
// gate count is the primary NISQ metric in the paper.
func (g Gate) IsTwoQubit() bool { return len(g.Qubits) == 2 }

// IsTGate reports whether the gate is a T or T† gate — the costly gates in
// fault-tolerant execution (Q4 in the paper).
func (g Gate) IsTGate() bool { return g.Name == T || g.Name == Tdg }

// IsIdentityAngle reports whether a parameterized rotation is the identity
// (all angles ≡ 0 mod 4π for half-angle rotations, mod 2π for phase gates)
// within tol. Non-parameterized gates return false.
func (g Gate) IsIdentityAngle(tol float64) bool {
	if len(g.Params) == 0 {
		return g.Name == I
	}
	switch g.Name {
	case Rx, Ry, Rz, Rxx, Rzz:
		// exp(-iθG/2) = I requires θ ≡ 0 (mod 4π); θ = 2π gives −I which is
		// identity up to global phase, acceptable for whole-circuit use but
		// NOT inside a controlled context. We only treat θ ≡ 0 mod 2π as
		// removable: at 2π the gate equals −I, a pure global phase.
		return linalg.IsMultipleOf(g.Params[0], 2*math.Pi, tol)
	case U1, CP:
		return linalg.IsMultipleOf(g.Params[0], 2*math.Pi, tol)
	case U3:
		return linalg.IsMultipleOf(g.Params[0], 2*math.Pi, tol) &&
			linalg.IsMultipleOf(g.Params[1]+g.Params[2], 2*math.Pi, tol)
	}
	return false
}
