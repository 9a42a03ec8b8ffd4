package gateset_test

import (
	"fmt"
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// refTranslate1Q is the single-qubit lowering that used to branch on a
// built-in's name, one curated path per set of Table 2. It is the oracle
// for the capability path: TestTranslateMatchesReference runs it as a
// Decompose hook and requires Translate to reproduce its output bit for
// bit.
func refTranslate1Q(g gate.Gate, gs *gateset.GateSet, out *circuit.Circuit) error {
	q := g.Qubits[0]
	if g.Name == gate.I || g.IsIdentityAngle(1e-12) {
		return nil
	}
	switch gs.Name {
	case gateset.IBMQ20.Name:
		// Exact cheap forms first, then generic U3 via Euler angles.
		switch g.Name {
		case gate.Rz:
			out.Append(gate.NewU1(g.Params[0], q))
		case gate.Z:
			out.Append(gate.NewU1(math.Pi, q))
		case gate.S:
			out.Append(gate.NewU1(math.Pi/2, q))
		case gate.Sdg:
			out.Append(gate.NewU1(-math.Pi/2, q))
		case gate.T:
			out.Append(gate.NewU1(math.Pi/4, q))
		case gate.Tdg:
			out.Append(gate.NewU1(-math.Pi/4, q))
		case gate.H:
			out.Append(gate.NewU2(0, math.Pi, q))
		default:
			th, ph, la, _ := linalg.U3Angles(gate.Matrix(g))
			out.Append(gate.NewU3(th, ph, la, q))
		}
		return nil

	case gateset.IBMEagle.Name:
		switch g.Name {
		case gate.Z:
			out.Append(gate.NewRz(math.Pi, q))
		case gate.S:
			out.Append(gate.NewRz(math.Pi/2, q))
		case gate.Sdg:
			out.Append(gate.NewRz(-math.Pi/2, q))
		case gate.T:
			out.Append(gate.NewRz(math.Pi/4, q))
		case gate.Tdg:
			out.Append(gate.NewRz(-math.Pi/4, q))
		case gate.U1:
			out.Append(gate.NewRz(g.Params[0], q))
		default:
			// Generic ZSXZSXZ: U3(θ,φ,λ) ~ Rz(φ+π)·SX·Rz(θ+π)·SX·Rz(λ).
			th, ph, la, _ := linalg.U3Angles(gate.Matrix(g))
			refAppendRz(out, la, q)
			out.Append(gate.NewSX(q))
			refAppendRz(out, th+math.Pi, q)
			out.Append(gate.NewSX(q))
			refAppendRz(out, ph+math.Pi, q)
		}
		return nil

	case gateset.IonQ.Name:
		// ZYZ Euler: U ~ Rz(φ)·Ry(θ)·Rz(λ).
		th, ph, la, _ := linalg.EulerZYZ(gate.Matrix(g))
		refAppendRz(out, la, q)
		if math.Abs(th) > 1e-12 {
			out.Append(gate.NewRy(th, q))
		}
		refAppendRz(out, ph, q)
		return nil

	case gateset.Nam.Name:
		switch g.Name {
		case gate.Z:
			out.Append(gate.NewRz(math.Pi, q))
		case gate.S:
			out.Append(gate.NewRz(math.Pi/2, q))
		case gate.Sdg:
			out.Append(gate.NewRz(-math.Pi/2, q))
		case gate.T:
			out.Append(gate.NewRz(math.Pi/4, q))
		case gate.Tdg:
			out.Append(gate.NewRz(-math.Pi/4, q))
		case gate.U1:
			out.Append(gate.NewRz(g.Params[0], q))
		case gate.Rx:
			// Rx(θ) = H·Rz(θ)·H.
			out.Append(gate.NewH(q))
			refAppendRz(out, g.Params[0], q)
			out.Append(gate.NewH(q))
		default:
			// U ~ Rz(φ)·Ry(θ)·Rz(λ) with Ry(θ) = Rz(π/2)·H·Rz(θ)·H·Rz(−π/2).
			th, ph, la, _ := linalg.EulerZYZ(gate.Matrix(g))
			refAppendRz(out, la-math.Pi/2, q)
			if math.Abs(th) > 1e-12 {
				out.Append(gate.NewH(q))
				refAppendRz(out, th, q)
				out.Append(gate.NewH(q))
			}
			refAppendRz(out, ph+math.Pi/2, q)
			// When θ=0 the two half-π z-rotations must still combine.
			return nil
		}
		return nil

	case gateset.CliffordT.Name:
		switch g.Name {
		case gate.Z:
			out.Append(gate.NewS(q), gate.NewS(q))
		case gate.Y:
			// Y ~ Z·X up to phase.
			out.Append(gate.NewS(q), gate.NewS(q), gate.NewX(q))
		case gate.SX:
			// SX ~ H·S·H up to phase (both are √X up to phase).
			out.Append(gate.NewH(q), gate.NewS(q), gate.NewH(q))
		case gate.SXdg:
			out.Append(gate.NewH(q), gate.NewSdg(q), gate.NewH(q))
		case gate.Rz, gate.U1:
			return refAppendCliffordTPhase(out, g.Params[0], q)
		case gate.Rx:
			out.Append(gate.NewH(q))
			if err := refAppendCliffordTPhase(out, g.Params[0], q); err != nil {
				return err
			}
			out.Append(gate.NewH(q))
		case gate.Ry:
			out.Append(gate.NewS(q), gate.NewH(q))
			if err := refAppendCliffordTPhase(out, g.Params[0], q); err != nil {
				return err
			}
			out.Append(gate.NewH(q), gate.NewSdg(q))
		default:
			return fmt.Errorf("gate %s not representable in Clifford+T", g.Name)
		}
		return nil
	}
	return fmt.Errorf("no reference lowering for gate set %s", gs.Name)
}

// refAppendRz appends an rz unless the angle is an identity rotation.
func refAppendRz(out *circuit.Circuit, theta float64, q int) {
	theta = linalg.NormAngle(theta)
	if math.Abs(theta) > 1e-12 {
		out.Append(gate.NewRz(theta, q))
	}
}

// refAppendCliffordTPhase writes a z-rotation by a multiple of π/4 as a
// minimal sequence over {S, S†, T, T†}.
func refAppendCliffordTPhase(out *circuit.Circuit, theta float64, q int) error {
	if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
		return fmt.Errorf("angle %g is not a multiple of π/4", theta)
	}
	k := int(math.Round(theta/(math.Pi/4))) % 8
	if k < 0 {
		k += 8
	}
	switch k {
	case 0:
	case 1:
		out.Append(gate.NewT(q))
	case 2:
		out.Append(gate.NewS(q))
	case 3:
		out.Append(gate.NewS(q), gate.NewT(q))
	case 4:
		out.Append(gate.NewS(q), gate.NewS(q))
	case 5:
		out.Append(gate.NewSdg(q), gate.NewTdg(q))
	case 6:
		out.Append(gate.NewSdg(q))
	case 7:
		out.Append(gate.NewTdg(q))
	}
	return nil
}
