package circuit

import (
	"fmt"

	"github.com/guoq-dev/guoq/internal/gate"
)

// DAG view of a circuit (§3): nodes are gate indices, and for each qubit the
// gates touching it form a totally ordered wire. An edge runs from each gate
// to the next gate on each of its wires.
//
// The DAG supports two maintenance modes. BuildDAG constructs a fresh view
// in two O(gates · arity) passes, one that sizes its storage and one that
// fills it — the mode of a new rewrite.Engine and of the stateless
// FindMatches/FullPass reference.
// A long-lived DAG (the rewrite.Engine's) is instead kept current across
// mutations with Splice/MultiSplice, which replace gate windows in place:
// the gate list is spliced, and the wire lists and links are recomputed
// into the existing storage, so steady-state maintenance allocates nothing
// no matter how many windows a pass rewrites. The links are flat: one next
// and one prev slot per (gate, qubit position), gate i's slots starting at
// off[i], so neither mode allocates per gate.
type DAG struct {
	c *Circuit
	// wires[q] lists the gate indices acting on qubit q, in circuit order.
	wires [][]int
	// Gate i's link slots are off[i] .. off[i+1]-1, aligned with its
	// Qubits: next[s] and prev[s] give the following and preceding gate
	// index on that wire, or -1.
	off  []int
	next []int
	prev []int

	// last is the per-qubit rebuild scratch (the link slot of the last
	// gate seen on each wire); gateScratch assembles spliced gate lists,
	// ping-ponging with the circuit's own slice.
	last        []int
	gateScratch []gate.Gate
}

// SpliceWindow is one window replacement of a MultiSplice: gates [Lo, Hi]
// are replaced by Repl. Hi == Lo-1 denotes a pure insertion before Lo.
type SpliceWindow struct {
	Lo, Hi int
	Repl   []gate.Gate
}

// BuildDAG constructs the DAG view for c. Its storage is sized by one
// counting pass first (see layout), so the build allocates a fixed handful
// of times, however many gates c has.
func BuildDAG(c *Circuit) *DAG {
	d := &DAG{c: c}
	d.layout()
	d.Rebuild()
	return d
}

// layout sizes a fresh DAG's storage exactly from one counting pass over
// its circuit: the wires are carved out of one backing array, and the link
// arrays get room for every slot. A carved wire's capacity ends where the
// next wire starts, so a wire that a later splice grows moves to a fresh
// array instead of overwriting its neighbour.
func (d *DAG) layout() {
	c := d.c
	count := make([]int, c.NumQubits)
	slots := 0
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			count[q]++
		}
		slots += len(g.Qubits)
	}
	backing := make([]int, slots)
	d.wires = make([][]int, c.NumQubits)
	lo := 0
	for q, k := range count {
		d.wires[q] = backing[lo : lo : lo+k]
		lo += k
	}
	d.last = count // Rebuild's per-qubit scratch
	d.off = make([]int, 0, len(c.Gates)+1)
	d.next = make([]int, 0, slots)
	d.prev = make([]int, 0, slots)
}

// Rebuild reconstructs the full DAG from the underlying circuit in place,
// reusing the wire and link storage of the previous state: BuildDAG's fill
// pass, which allocates only where the circuit outgrows that storage.
func (d *DAG) Rebuild() {
	c := d.c
	if cap(d.wires) < c.NumQubits {
		d.wires = make([][]int, c.NumQubits)
	}
	d.wires = d.wires[:c.NumQubits]
	for q := range d.wires {
		d.wires[q] = d.wires[q][:0]
	}
	if cap(d.last) < c.NumQubits {
		d.last = make([]int, c.NumQubits)
	}
	last := d.last[:c.NumQubits]
	off, next, prev := d.off[:0], d.next[:0], d.prev[:0]
	for i, g := range c.Gates {
		off = append(off, len(next))
		for _, q := range g.Qubits {
			w := d.wires[q]
			if len(w) > 0 {
				next[last[q]] = i
				prev = append(prev, w[len(w)-1])
			} else {
				prev = append(prev, -1)
			}
			last[q] = len(next)
			next = append(next, -1)
			d.wires[q] = append(w, i)
		}
	}
	d.off, d.next, d.prev = append(off, len(next)), next, prev
}

// MultiSplice replaces every window of ws — ascending, non-overlapping —
// with its replacement, in one pass: the new gate list is assembled into a
// reused scratch buffer (swapped with the circuit's slice) and the link
// structure rebuilt in place. This is how an engine applies a full pass's
// disjoint matches: one O(gates) sweep regardless of how many windows the
// pass rewrote, with no allocation in steady state.
func (d *DAG) MultiSplice(ws []SpliceWindow) {
	c := d.c
	prevHi := -1
	for _, w := range ws {
		if w.Lo <= prevHi || w.Hi >= len(c.Gates) || w.Hi < w.Lo-1 {
			panic(fmt.Sprintf("circuit: MultiSplice window [%d,%d] invalid (%d gates, previous hi %d)",
				w.Lo, w.Hi, len(c.Gates), prevHi))
		}
		prevHi = w.Hi
		if w.Lo > w.Hi {
			prevHi = w.Lo - 1
		}
	}
	out := d.gateScratch[:0]
	i := 0
	for _, w := range ws {
		out = append(out, c.Gates[i:w.Lo]...)
		out = append(out, w.Repl...)
		i = w.Hi + 1
	}
	out = append(out, c.Gates[i:]...)
	// Ping-pong the buffers: the old gate slice becomes the next scratch.
	d.gateScratch = c.Gates[:0]
	c.Gates = out
	d.Rebuild()
}

// Splice replaces the single gate window [lo, hi] with repl; see
// MultiSplice.
func (d *DAG) Splice(lo, hi int, repl []gate.Gate) {
	d.MultiSplice([]SpliceWindow{{Lo: lo, Hi: hi, Repl: repl}})
}

// Circuit returns the underlying circuit.
func (d *DAG) Circuit() *Circuit { return d.c }

// Wire returns the ordered gate indices on qubit q.
func (d *DAG) Wire(q int) []int { return d.wires[q] }

// Links returns the raw per-qubit-position next and prev gate links of gate
// i. The slices alias the DAG's internal state and must not be modified;
// they are positionally aligned with the gate's Qubits.
func (d *DAG) Links(i int) (next, prev []int) {
	lo, hi := d.off[i], d.off[i+1]
	return d.next[lo:hi:hi], d.prev[lo:hi:hi]
}

// NextOnWire returns the gate index following gate i on qubit q, or -1.
// Gate i must act on q.
func (d *DAG) NextOnWire(i, q int) int {
	for k, gq := range d.c.Gates[i].Qubits {
		if gq == q {
			return d.next[d.off[i]+k]
		}
	}
	return -1
}

// PrevOnWire returns the gate index preceding gate i on qubit q, or -1.
func (d *DAG) PrevOnWire(i, q int) int {
	for k, gq := range d.c.Gates[i].Qubits {
		if gq == q {
			return d.prev[d.off[i]+k]
		}
	}
	return -1
}

// Successors returns the distinct gate indices immediately following gate i
// on any of its wires.
func (d *DAG) Successors(i int) []int {
	var out []int
	next, _ := d.Links(i)
	for _, n := range next {
		if n >= 0 && !containsInt(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// Predecessors returns the distinct gate indices immediately preceding gate
// i on any of its wires.
func (d *DAG) Predecessors(i int) []int {
	var out []int
	_, prev := d.Links(i)
	for _, p := range prev {
		if p >= 0 && !containsInt(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
