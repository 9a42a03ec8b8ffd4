package gateset

import (
	"fmt"
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// Translate decomposes a circuit into the target gate set, preserving the
// unitary up to global phase. This is the "input circuit is already
// decomposed into the target gate set" preprocessing of §6.
//
// The pipeline first consults the set's Decompose hook (custom sets), then
// lowers multi-qubit gates to {1q, CX} (plus Rzz for ionq), then lowers
// single-qubit gates by the capabilities of the set's basis, and finally
// lowers CX itself for sets without a native CX (ionq, or any set with a
// CZ- or Rxx-style entangler). Every step reads the basis, never the
// set's name, so a built-in lowers exactly like an unregistered set with
// the same basis.
func Translate(c *circuit.Circuit, gs *GateSet) (*circuit.Circuit, error) {
	out := circuit.New(c.NumQubits)
	for _, g := range c.Gates {
		if err := translateGate(g, gs, out, 0); err != nil {
			return nil, fmt.Errorf("gateset: translate %v to %s: %w", g, gs.Name, err)
		}
	}
	return out, nil
}

// maxLowerDepth bounds recursive lowering so a miswritten Decompose hook
// (one that cycles through non-native forms) errors instead of recursing
// forever. Built-in chains are ≤ 4 deep; 32 leaves custom hooks room.
const maxLowerDepth = 32

// MustTranslate is Translate for callers with statically valid input (e.g.
// the benchmark generators); it panics on error.
func MustTranslate(c *circuit.Circuit, gs *GateSet) *circuit.Circuit {
	out, err := Translate(c, gs)
	if err != nil {
		panic(err)
	}
	return out
}

func translateGate(g gate.Gate, gs *GateSet, out *circuit.Circuit, depth int) error {
	if depth > maxLowerDepth {
		return fmt.Errorf("lowering of %s exceeds depth %d (cyclic Decompose hook?)", g.Name, maxLowerDepth)
	}
	if g.Name == gate.I || g.IsIdentityAngle(1e-12) {
		return nil
	}
	if gs.Contains(g.Name) {
		out.Append(g.Clone())
		return nil
	}
	// Custom sets lower through their Decompose hook first, so a registered
	// target can override any built-in path; falling through (ok = false)
	// keeps the built-in lowerings as the backstop.
	if gs.Decompose != nil {
		if seq, ok := gs.Decompose(g); ok {
			for _, sub := range seq {
				if sub.Name == g.Name {
					return fmt.Errorf("decompose hook for %s re-emits the gate", g.Name)
				}
			}
			return translateAll(gs, out, depth+1, seq...)
		}
	}
	switch g.Name {
	// --- multi-qubit lowering to {1q, cx} ---
	case gate.CCX:
		a, b, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		return translateAll(gs, out, depth+1, ccxSeq(a, b, t)...)
	case gate.CCZ:
		a, b, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		seq := []gate.Gate{gate.NewH(t)}
		seq = append(seq, ccxSeq(a, b, t)...)
		seq = append(seq, gate.NewH(t))
		return translateAll(gs, out, depth+1, seq...)
	case gate.CZ:
		c, t := g.Qubits[0], g.Qubits[1]
		return translateAll(gs, out, depth+1,
			gate.NewH(t), gate.NewCX(c, t), gate.NewH(t))
	case gate.Swap:
		a, b := g.Qubits[0], g.Qubits[1]
		return translateAll(gs, out, depth+1,
			gate.NewCX(a, b), gate.NewCX(b, a), gate.NewCX(a, b))
	case gate.CP:
		c, t := g.Qubits[0], g.Qubits[1]
		th := g.Params[0]
		return translateAll(gs, out, depth+1,
			gate.NewRz(th/2, c), gate.NewCX(c, t),
			gate.NewRz(-th/2, t), gate.NewCX(c, t), gate.NewRz(th/2, t))
	case gate.Rzz:
		a, b := g.Qubits[0], g.Qubits[1]
		if gs.Contains(gate.Rxx) && !gs.Contains(gate.CX) {
			// ZZ = (H-like basis change) of XX: Rzz = (Ry(-π/2)⊗Ry(-π/2))·
			// Rxx·(Ry(π/2)⊗Ry(π/2)) since Z = Ry(-π/2)·X·Ry(π/2).
			return translateAll(gs, out, depth+1,
				gate.NewRy(math.Pi/2, a), gate.NewRy(math.Pi/2, b),
				gate.NewRxx(g.Params[0], a, b),
				gate.NewRy(-math.Pi/2, a), gate.NewRy(-math.Pi/2, b))
		}
		return translateAll(gs, out, depth+1,
			gate.NewCX(a, b), gate.NewRz(g.Params[0], b), gate.NewCX(a, b))
	case gate.Rxx:
		a, b := g.Qubits[0], g.Qubits[1]
		return translateAll(gs, out, depth+1,
			gate.NewH(a), gate.NewH(b),
			gate.NewRzz(g.Params[0], a, b),
			gate.NewH(a), gate.NewH(b))
	case gate.CX:
		// Sets without a native CX synthesize it from their entangler:
		// Maslov-style from Rxx (ionq and ion-trap-like custom sets), or
		// H-conjugated CZ for CZ-based superconducting sets.
		c, t := g.Qubits[0], g.Qubits[1]
		switch {
		case gs.Contains(gate.Rxx):
			return translateAll(gs, out, depth+1,
				gate.NewRy(math.Pi/2, c),
				gate.NewRxx(math.Pi/2, c, t),
				gate.NewRx(-math.Pi/2, c),
				gate.NewRx(-math.Pi/2, t),
				gate.NewRy(-math.Pi/2, c))
		case gs.Contains(gate.CZ):
			return translateAll(gs, out, depth+1,
				gate.NewH(t), gate.NewCZ(c, t), gate.NewH(t))
		}
		return fmt.Errorf("no cx lowering for gate set %s", gs.Name)
	}

	if len(g.Qubits) != 1 {
		return fmt.Errorf("no lowering for %d-qubit gate %s", len(g.Qubits), g.Name)
	}
	return translate1Q(g, gs, out)
}

func translateAll(gs *GateSet, out *circuit.Circuit, depth int, seq ...gate.Gate) error {
	for _, g := range seq {
		if err := translateGate(g, gs, out, depth); err != nil {
			return err
		}
	}
	return nil
}

// ccxSeq is the standard 6-CX, 7-T Toffoli decomposition.
func ccxSeq(a, b, t int) []gate.Gate {
	return []gate.Gate{
		gate.NewH(t),
		gate.NewCX(b, t), gate.NewTdg(t),
		gate.NewCX(a, t), gate.NewT(t),
		gate.NewCX(b, t), gate.NewTdg(t),
		gate.NewCX(a, t), gate.NewT(b), gate.NewT(t),
		gate.NewH(t),
		gate.NewCX(a, b), gate.NewT(a), gate.NewTdg(b),
		gate.NewCX(a, b),
	}
}

// euler is how a set factors a general single-qubit unitary, chosen from
// its basis when the set is built (eulerFor).
type euler uint8

const (
	eulerNone      euler = iota // no known factorization: needs a Decompose hook
	eulerU3                     // u3
	eulerZSX                    // z·sx·z·sx·z
	eulerZYZ                    // z·ry·z
	eulerZXZ                    // z·rx·z
	eulerZHZ                    // z·h·z·h·z
	eulerCliffordT              // exact π/4 paths over h, s, sdg, t, tdg
)

// eulerFor picks the first factorization the basis carries; every Euler
// form but u3 needs a continuous z-rotation.
func eulerFor(gs *GateSet) euler {
	switch {
	case gs.Contains(gate.U3):
		return eulerU3
	case gs.z != "" && gs.Contains(gate.SX):
		return eulerZSX
	case gs.z != "" && gs.Contains(gate.Ry):
		return eulerZYZ
	case gs.z != "" && gs.Contains(gate.Rx):
		return eulerZXZ
	case gs.z != "" && gs.Contains(gate.H):
		return eulerZHZ
	case gs.ladder && gs.Contains(gate.H):
		return eulerCliffordT
	}
	return eulerNone
}

// translate1Q lowers a single-qubit gate by the set's capabilities. Three
// rules come before the general factorization, each keyed on the basis: a
// named z-phase gate becomes one native z-rotation carrying its exact
// angle; h becomes u2(0, π) in a set with u2; and rx(θ) becomes h·rz(θ)·h
// in a set with h and rz but no ry.
func translate1Q(g gate.Gate, gs *GateSet, out *circuit.Circuit) error {
	q := g.Qubits[0]
	if a, ok := gate.ZPhase(g); ok && gs.z != "" {
		out.Append(gate.New(gs.z, []int{q}, []float64{a}))
		return nil
	}
	switch {
	case g.Name == gate.H && gs.Contains(gate.U2):
		out.Append(gate.NewU2(0, math.Pi, q))
		return nil
	case g.Name == gate.Rx && gs.Contains(gate.H) && gs.Contains(gate.Rz) && !gs.Contains(gate.Ry):
		out.Append(gate.NewH(q))
		appendZ(out, gs, g.Params[0], q)
		out.Append(gate.NewH(q))
		return nil
	}
	switch gs.euler {
	case eulerNone:
		return fmt.Errorf("no single-qubit lowering for gate set %s (no known 1q basis; set a Decompose hook)", gs.Name)
	case eulerCliffordT:
		return translate1QCliffordT(g, gs, out)
	}
	// U ~ U3(θ,φ,λ) = Rz(φ)·Ry(θ)·Rz(λ) up to phase.
	th, ph, la, _ := linalg.U3Angles(gate.Matrix(g))
	if th <= 1e-12 && gs.z != "" {
		// A diagonal unitary is one z-rotation.
		appendZ(out, gs, ph+la, q)
		return nil
	}
	switch gs.euler {
	case eulerU3:
		out.Append(gate.NewU3(th, ph, la, q))
	case eulerZSX:
		// U3(θ,φ,λ) ~ Rz(φ+π)·SX·Rz(θ+π)·SX·Rz(λ).
		appendZ(out, gs, la, q)
		out.Append(gate.NewSX(q))
		appendZ(out, gs, th+math.Pi, q)
		out.Append(gate.NewSX(q))
		appendZ(out, gs, ph+math.Pi, q)
	case eulerZYZ:
		appendZ(out, gs, la, q)
		out.Append(gate.NewRy(th, q))
		appendZ(out, gs, ph, q)
	case eulerZXZ:
		// Ry(θ) = Rz(π/2)·Rx(θ)·Rz(−π/2), folded into the z-rotations.
		appendZ(out, gs, la-math.Pi/2, q)
		out.Append(gate.NewRx(th, q))
		appendZ(out, gs, ph+math.Pi/2, q)
	case eulerZHZ:
		// Ry(θ) = Rz(π/2)·H·Rz(θ)·H·Rz(−π/2), folded into the z-rotations.
		appendZ(out, gs, la-math.Pi/2, q)
		out.Append(gate.NewH(q))
		appendZ(out, gs, th, q)
		out.Append(gate.NewH(q))
		appendZ(out, gs, ph+math.Pi/2, q)
	}
	return nil
}

// translate1QCliffordT lowers a single-qubit gate over the {H,S,S†,T,T†}
// vocabulary (plus X when present); exact only for π/4-multiple rotations.
func translate1QCliffordT(g gate.Gate, gs *GateSet, out *circuit.Circuit) error {
	q := g.Qubits[0]
	switch g.Name {
	case gate.Z:
		out.Append(gate.NewS(q), gate.NewS(q))
	case gate.Y:
		if !gs.Contains(gate.X) {
			return fmt.Errorf("gate y needs x in the basis of %s", gs.Name)
		}
		out.Append(gate.NewS(q), gate.NewS(q), gate.NewX(q))
	case gate.X:
		// X = H·Z·H for sets that dropped X from the basis.
		out.Append(gate.NewH(q), gate.NewS(q), gate.NewS(q), gate.NewH(q))
	case gate.SX:
		out.Append(gate.NewH(q), gate.NewS(q), gate.NewH(q))
	case gate.SXdg:
		out.Append(gate.NewH(q), gate.NewSdg(q), gate.NewH(q))
	case gate.Rz, gate.U1:
		return appendLadder(out, gs, g.Params[0], q)
	case gate.Rx:
		out.Append(gate.NewH(q))
		if err := appendLadder(out, gs, g.Params[0], q); err != nil {
			return err
		}
		out.Append(gate.NewH(q))
	case gate.Ry:
		// Ry(θ) = S·Rx(θ)·S†, since S·X·S† = Y.
		out.Append(gate.NewSdg(q), gate.NewH(q))
		if err := appendLadder(out, gs, g.Params[0], q); err != nil {
			return err
		}
		out.Append(gate.NewH(q), gate.NewS(q))
	default:
		return fmt.Errorf("gate %s not representable over a Clifford+T basis", g.Name)
	}
	return nil
}

// appendZ appends the set's rendering of a z-rotation by theta.
func appendZ(out *circuit.Circuit, gs *GateSet, theta float64, q int) {
	em, _ := gs.ZRotation(theta)
	for i := 0; i < em.Len(); i++ {
		out.Append(em.Gate(i, q))
	}
}

// appendLadder appends a z-rotation by a multiple of π/4 as the minimal
// sequence over {S, S†, T, T†}. Other angles cannot be represented exactly
// in Clifford+T and return an error.
func appendLadder(out *circuit.Circuit, gs *GateSet, theta float64, q int) error {
	em, ok := gs.ZRotation(theta)
	if !ok {
		return fmt.Errorf("angle %g is not a multiple of π/4", theta)
	}
	for i := 0; i < em.Len(); i++ {
		out.Append(em.Gate(i, q))
	}
	return nil
}

// ZEmission is a z-rotation rendered in a set's native diagonal gates,
// before any gate is built: one rotation gate, or a π/4 ladder. The zero
// value emits nothing.
type ZEmission struct {
	name   gate.Name // rz or u1; empty for a ladder
	theta  float64
	ladder []gate.Name // shared; must not be modified
}

// Len is the number of gates the emission builds.
func (z ZEmission) Len() int {
	if z.name != "" {
		return 1
	}
	return len(z.ladder)
}

// Equal reports whether the i-th emitted gate on qubit q equals g bit for
// bit, without building it.
func (z ZEmission) Equal(i, q int, g gate.Gate) bool {
	if len(g.Qubits) != 1 || g.Qubits[0] != q {
		return false
	}
	if z.name != "" {
		return g.Name == z.name && len(g.Params) == 1 && g.Params[0] == z.theta
	}
	return g.Name == z.ladder[i] && len(g.Params) == 0
}

// Gate builds the i-th emitted gate on qubit q.
func (z ZEmission) Gate(i, q int) gate.Gate {
	if z.name != "" {
		return gate.New(z.name, []int{q}, []float64{z.theta})
	}
	return gate.New(z.ladder[i], []int{q}, nil)
}

// ZRotation renders a z-rotation by theta, wrapped into (−π, π], in the
// set's native diagonal gates: rz if the set has it, else u1, else the π/4
// ladder when theta is a multiple of π/4. An angle within 1e-12 of zero
// renders as nothing. ok = false reports that the set has no exact native
// form for the angle.
func (gs *GateSet) ZRotation(theta float64) (em ZEmission, ok bool) {
	theta = linalg.NormAngle(theta)
	switch {
	case math.Abs(theta) < 1e-12:
		return ZEmission{}, true
	case gs.z != "":
		return ZEmission{name: gs.z, theta: theta}, true
	case gs.ladder && linalg.IsMultipleOf(theta, math.Pi/4, 1e-9):
		return ZEmission{ladder: gate.PhaseLadder(theta)}, true
	}
	return ZEmission{}, false
}

// ZAnyAngle reports whether the set has a continuous z-rotation (rz or
// u1), so that ZRotation renders every angle.
func (gs *GateSet) ZAnyAngle() bool { return gs.z != "" }

// ZLadder reports whether the set has the π/4 ladder: s, sdg, t and tdg.
func (gs *GateSet) ZLadder() bool { return gs.ladder }
