// Package gate defines the quantum gate vocabulary: gate names, arities,
// parameter counts, unitary matrices, and inverses. A Gate is a gate
// application — a named operation bound to concrete qubits and angles.
//
// The matrix convention follows the paper (Example 3.1): within a gate's own
// matrix, its first qubit is the most significant bit of the basis index, so
// CX(control, target) is [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]].
package gate

import (
	"fmt"
	"strings"
)

// Name identifies a gate kind, in OpenQASM-style lower case ("h", "cx", ...).
type Name string

// The supported gate vocabulary. The five evaluation gate sets (Table 2) are
// subsets of this list; the remaining gates (ccx, cp, ...) appear in
// benchmark construction and are translated away by package gateset.
const (
	I    Name = "id"
	H    Name = "h"
	X    Name = "x"
	Y    Name = "y"
	Z    Name = "z"
	S    Name = "s"
	Sdg  Name = "sdg"
	T    Name = "t"
	Tdg  Name = "tdg"
	SX   Name = "sx"
	SXdg Name = "sxdg"
	Rx   Name = "rx"
	Ry   Name = "ry"
	Rz   Name = "rz"
	U1   Name = "u1"
	U2   Name = "u2"
	U3   Name = "u3"
	CX   Name = "cx"
	CZ   Name = "cz"
	Swap Name = "swap"
	Rxx  Name = "rxx"
	Rzz  Name = "rzz"
	CP   Name = "cp"
	CCX  Name = "ccx"
	CCZ  Name = "ccz"
)

// Spec describes the static shape of a gate kind.
type Spec struct {
	Qubits int // arity
	Params int // number of angle parameters
}

var specs = map[Name]Spec{
	I: {1, 0}, H: {1, 0}, X: {1, 0}, Y: {1, 0}, Z: {1, 0},
	S: {1, 0}, Sdg: {1, 0}, T: {1, 0}, Tdg: {1, 0},
	SX: {1, 0}, SXdg: {1, 0},
	Rx: {1, 1}, Ry: {1, 1}, Rz: {1, 1},
	U1: {1, 1}, U2: {1, 2}, U3: {1, 3},
	CX: {2, 0}, CZ: {2, 0}, Swap: {2, 0},
	Rxx: {2, 1}, Rzz: {2, 1}, CP: {2, 1},
	CCX: {3, 0}, CCZ: {3, 0},
}

// SpecOf returns the Spec for a gate name and whether the name is known.
func SpecOf(n Name) (Spec, bool) {
	s, ok := specs[n]
	return s, ok
}

// Names returns all known gate names (unordered).
func Names() []Name {
	out := make([]Name, 0, len(specs))
	for n := range specs {
		out = append(out, n)
	}
	return out
}

// Gate is a gate application: a kind, the qubits it acts on (in gate order:
// controls first), and its angle parameters.
type Gate struct {
	Name   Name
	Qubits []int
	Params []float64
}

// New constructs a gate application, validating arity and parameter count.
// It panics on malformed input since callers construct gates from static
// knowledge; the QASM parser validates separately and returns errors.
func New(n Name, qubits []int, params []float64) Gate {
	s, ok := specs[n]
	if !ok {
		panic(fmt.Sprintf("gate: unknown gate %q", n))
	}
	if len(qubits) != s.Qubits {
		panic(fmt.Sprintf("gate: %s expects %d qubits, got %d", n, s.Qubits, len(qubits)))
	}
	if len(params) != s.Params {
		panic(fmt.Sprintf("gate: %s expects %d params, got %d", n, s.Params, len(params)))
	}
	seen := 0
	for _, q := range qubits {
		if q < 0 {
			panic(fmt.Sprintf("gate: %s on negative qubit %d", n, q))
		}
		if q < 64 {
			bit := 1 << uint(q)
			if seen&bit != 0 {
				panic(fmt.Sprintf("gate: %s uses qubit %d twice", n, q))
			}
			seen |= bit
		}
	}
	return Gate{Name: n, Qubits: qubits, Params: params}
}

// Equal reports structural equality with h: same name, qubits, and
// float-equal parameters. This is the per-gate comparison circuit.Equal
// applies, and the one the changed-count passes use to certify no-ops.
func (g Gate) Equal(h Gate) bool {
	if g.Name != h.Name || len(g.Qubits) != len(h.Qubits) || len(g.Params) != len(h.Params) {
		return false
	}
	for i := range g.Qubits {
		if g.Qubits[i] != h.Qubits[i] {
			return false
		}
	}
	for i := range g.Params {
		if g.Params[i] != h.Params[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of g.
func (g Gate) Clone() Gate {
	q := make([]int, len(g.Qubits))
	copy(q, g.Qubits)
	var p []float64
	if len(g.Params) > 0 {
		p = make([]float64, len(g.Params))
		copy(p, g.Params)
	}
	return Gate{Name: g.Name, Qubits: q, Params: p}
}

// OnQubit reports whether g touches qubit q.
func (g Gate) OnQubit(q int) bool {
	for _, x := range g.Qubits {
		if x == q {
			return true
		}
	}
	return false
}

// String renders the gate in QASM-like syntax, e.g. "rz(1.5708) q[3]".
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(string(g.Name))
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.10g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}

// Convenience constructors for the common gates.

func NewH(q int) Gate   { return New(H, []int{q}, nil) }
func NewX(q int) Gate   { return New(X, []int{q}, nil) }
func NewY(q int) Gate   { return New(Y, []int{q}, nil) }
func NewZ(q int) Gate   { return New(Z, []int{q}, nil) }
func NewS(q int) Gate   { return New(S, []int{q}, nil) }
func NewSdg(q int) Gate { return New(Sdg, []int{q}, nil) }
func NewT(q int) Gate   { return New(T, []int{q}, nil) }
func NewTdg(q int) Gate { return New(Tdg, []int{q}, nil) }
func NewSX(q int) Gate  { return New(SX, []int{q}, nil) }

func NewRx(theta float64, q int) Gate { return New(Rx, []int{q}, []float64{theta}) }
func NewRy(theta float64, q int) Gate { return New(Ry, []int{q}, []float64{theta}) }
func NewRz(theta float64, q int) Gate { return New(Rz, []int{q}, []float64{theta}) }
func NewU1(l float64, q int) Gate     { return New(U1, []int{q}, []float64{l}) }
func NewU2(p, l float64, q int) Gate  { return New(U2, []int{q}, []float64{p, l}) }
func NewU3(t, p, l float64, q int) Gate {
	return New(U3, []int{q}, []float64{t, p, l})
}

func NewCX(c, t int) Gate   { return New(CX, []int{c, t}, nil) }
func NewCZ(c, t int) Gate   { return New(CZ, []int{c, t}, nil) }
func NewSwap(a, b int) Gate { return New(Swap, []int{a, b}, nil) }
func NewRxx(theta float64, a, b int) Gate {
	return New(Rxx, []int{a, b}, []float64{theta})
}
func NewRzz(theta float64, a, b int) Gate {
	return New(Rzz, []int{a, b}, []float64{theta})
}
func NewCP(theta float64, c, t int) Gate {
	return New(CP, []int{c, t}, []float64{theta})
}
func NewCCX(c1, c2, t int) Gate { return New(CCX, []int{c1, c2, t}, nil) }
func NewCCZ(a, b, c int) Gate   { return New(CCZ, []int{a, b, c}, nil) }
