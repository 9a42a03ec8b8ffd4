// Package circuit provides the quantum circuit intermediate representation:
// an ordered gate list with an on-demand DAG view, convex subcircuit
// extraction and replacement (§3 and §5.3 of the paper), gate-count metrics,
// unitary evaluation, and OpenQASM 2.0 (subset) input/output.
package circuit

import (
	"fmt"
	"strings"

	"github.com/guoq-dev/guoq/internal/gate"
)

// Circuit is an ordered sequence of gate applications on NumQubits qubits.
// The list order is an execution order: gate i is applied before gate j for
// i < j. Two gates on disjoint qubits may commute, which the DAG view makes
// explicit.
type Circuit struct {
	NumQubits int
	Gates     []gate.Gate
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NumQubits: n}
}

// Append adds gate applications to the end of the circuit, validating qubit
// bounds.
func (c *Circuit) Append(gs ...gate.Gate) {
	for _, g := range gs {
		for _, q := range g.Qubits {
			if q >= c.NumQubits {
				panic(fmt.Sprintf("circuit: gate %v exceeds %d qubits", g, c.NumQubits))
			}
		}
		c.Gates = append(c.Gates, g)
	}
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NumQubits: c.NumQubits, Gates: make([]gate.Gate, len(c.Gates))}
	for i, g := range c.Gates {
		out.Gates[i] = g.Clone()
	}
	return out
}

// Len returns the total gate count.
func (c *Circuit) Len() int { return len(c.Gates) }

// TwoQubitCount returns the number of two-qubit gates — the primary NISQ
// cost metric (§6, Metrics).
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// TCount returns the number of T and T† gates — the primary FTQC cost
// metric (Q4).
func (c *Circuit) TCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTGate() {
			n++
		}
	}
	return n
}

// CountByName returns a histogram of gate kinds.
func (c *Circuit) CountByName() map[gate.Name]int {
	m := make(map[gate.Name]int)
	for _, g := range c.Gates {
		m[g.Name]++
	}
	return m
}

// CountOf returns the number of gates with the given name.
func (c *Circuit) CountOf(n gate.Name) int {
	k := 0
	for _, g := range c.Gates {
		if g.Name == n {
			k++
		}
	}
	return k
}

// Depth returns the circuit depth: the length of the longest chain of gates
// that share qubits, i.e. the number of parallel layers.
func (c *Circuit) Depth() int {
	front := make([]int, c.NumQubits)
	depth := 0
	for _, g := range c.Gates {
		layer := 0
		for _, q := range g.Qubits {
			if front[q] > layer {
				layer = front[q]
			}
		}
		layer++
		for _, q := range g.Qubits {
			front[q] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// Equal reports structural equality: same qubit count and identical gate
// sequences (names, qubits, and parameters bitwise-equal).
func Equal(a, b *Circuit) bool {
	if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i := range a.Gates {
		if !a.Gates[i].Equal(b.Gates[i]) {
			return false
		}
	}
	return true
}

// MapQubits returns a copy of the circuit with every qubit q replaced by
// mapping[q], on numQubits total qubits.
func (c *Circuit) MapQubits(mapping []int, numQubits int) *Circuit {
	out := New(numQubits)
	for _, g := range c.Gates {
		qs := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = mapping[q]
		}
		ng := g.Clone()
		ng.Qubits = qs
		out.Append(ng)
	}
	return out
}

// Inverse returns the adjoint circuit: gates reversed and individually
// inverted.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NumQubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.Append(gate.Inverse(c.Gates[i]))
	}
	return out
}

// String renders the circuit one gate per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%d qubits, %d gates)\n", c.NumQubits, len(c.Gates))
	for _, g := range c.Gates {
		b.WriteString("  ")
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}
