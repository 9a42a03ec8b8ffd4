package rewrite

import (
	"math"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// CleanupChangedFor is the ε = 0 normalization pass applied alongside the
// symbolic rules: it drops identity rotations, cancels adjacent inverse
// pairs (h·h, cx·cx, t·t†, ...), and merges adjacent z-diagonal phase gates
// and same-axis rotations, emitting a merged z-rotation as gs renders it
// (GateSet.ZRotation). It is a single linear pass using per-wire stacks,
// so it is cheap enough to run after every accepted transformation.
//
// It returns a change count: the number of normalization, cancellation,
// merge, and reorder events that made the output differ from the input. A
// zero count guarantees the output is structurally identical
// (circuit.Equal) to the input, which is then returned itself, so callers
// can detect no-ops without a deep compare.
func CleanupChangedFor(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	p := cleaners.Get().(*cleaner)
	p.gs = gs
	p.top = p.top[:0]
	for q := 0; q < c.NumQubits; q++ {
		p.top = append(p.top, -1)
	}
	for _, g := range c.Gates {
		p.feed(g)
	}
	out, changed := c, p.changed
	if changed > 0 {
		out = circuit.New(c.NumQubits)
		out.Gates = make([]gate.Gate, 0, len(p.out))
		for i, g := range p.out {
			if p.alive[i] {
				out.Gates = append(out.Gates, g)
			}
		}
	}
	clear(p.out)
	clear(p.dropSeq)
	p.out, p.alive, p.below, p.belowAt, p.dropSeq = p.out[:0], p.alive[:0], p.below[:0], p.belowAt[:0], p.dropSeq[:0]
	p.gs, p.changed = nil, 0
	cleaners.Put(p)
	return out, changed
}

// cleaners recycles the pass's scratch, so a call that changes nothing
// allocates nothing.
var cleaners = sync.Pool{New: func() any { return new(cleaner) }}

// cleaner is the pass's state: the output as a list of gates with alive
// marks, and per-wire stacks threaded through it. When nothing changes,
// the alive gates are exactly the input's, so the output circuit is built
// only when changed > 0.
type cleaner struct {
	gs      *gateset.GateSet
	out     []gate.Gate
	alive   []bool
	top     []int // per qubit: index into out of the topmost alive gate, or -1
	below   []int // per pushed gate and qubit: the previous top, from belowAt
	belowAt []int // per out index: where its entries start in below
	changed int
	dropSeq []gate.Gate // a merged run's gates in drop (reverse) order
}

// push appends g as an alive output gate and records, for each of its
// qubits, the previous top so cancellation can restore the stack.
func (p *cleaner) push(g gate.Gate) {
	idx := len(p.out)
	p.out = append(p.out, g)
	p.alive = append(p.alive, true)
	p.belowAt = append(p.belowAt, len(p.below))
	for _, q := range g.Qubits {
		p.below = append(p.below, p.top[q])
		p.top[q] = idx
	}
}

// drop kills output gate idx and restores the stack tops for its qubits.
func (p *cleaner) drop(idx int) {
	p.alive[idx] = false
	below := p.below[p.belowAt[idx]:]
	for k, q := range p.out[idx].Qubits {
		if p.top[q] == idx {
			p.top[q] = below[k]
		}
	}
}

func (p *cleaner) feed(g gate.Gate) {
	// Normalize angles and drop identities. Parameters are copied only
	// when one of them changes.
	var norm []float64
	for i, v := range g.Params {
		if nv := linalg.NormAngle(v); nv != v {
			if norm == nil {
				norm = append([]float64(nil), g.Params...)
			}
			norm[i] = nv
			p.changed++
		}
	}
	if norm != nil {
		g = gate.Gate{Name: g.Name, Qubits: g.Qubits, Params: norm}
	}
	if g.Name == gate.I || g.IsIdentityAngle(1e-12) {
		p.changed++
		return
	}
	switch len(g.Qubits) {
	case 1:
		p.feed1q(g)
	case 2:
		p.feed2q(g)
	default:
		p.push(g)
	}
}

// feed1q pushes a single-qubit gate, cancelling or merging it with the
// top of its wire's stack.
//
//guoq:hotpath
func (p *cleaner) feed1q(g gate.Gate) {
	q := g.Qubits[0]
	t := p.top[q]
	if t < 0 || !p.alive[t] || len(p.out[t].Qubits) != 1 {
		p.push(g)
		return
	}
	prev := p.out[t]
	// Inverse pair cancellation: U_g · U_prev ∝ I.
	if gate.Matrix2(g).Mul(gate.Matrix2(prev)).EqualUpToPhase(linalg.Mat2{1, 0, 0, 1}, 1e-10) {
		p.changed++
		p.drop(t)
		return
	}
	// z-diagonal merging: absorb the whole consecutive diagonal run below
	// the top, then emit the minimal ladder once. (Re-feeding the ladder
	// would loop: the k=3 ladder [s, t] merges straight back to 3π/4.)
	pa, pok := gate.ZPhase(prev)
	ga, gok := gate.ZPhase(g)
	if pok && gok {
		total := pa + ga
		droppedLo := t
		p.dropSeq = append(p.dropSeq[:0], prev)
		p.drop(t)
		for {
			t2 := p.top[q]
			if t2 < 0 || !p.alive[t2] || len(p.out[t2].Qubits) != 1 {
				break
			}
			a2, ok := gate.ZPhase(p.out[t2])
			if !ok {
				break
			}
			total += a2
			p.dropSeq = append(p.dropSeq, p.out[t2])
			droppedLo = t2
			p.drop(t2)
		}
		em, representable := p.gs.ZRotation(total)
		// The emission reproduces the run when it has one gate per dropped
		// gate plus g, each equal to the original in place.
		same := representable && em.Len() == len(p.dropSeq)+1
		for i := 0; same && i < em.Len(); i++ {
			orig := g
			if i < len(p.dropSeq) {
				orig = p.dropSeq[len(p.dropSeq)-1-i]
			}
			same = em.Equal(i, q, orig)
		}
		// Restoring the run, or re-emitting it unchanged, reorders the
		// output only when something alive follows it.
		if (representable && !same) || p.aliveAfter(droppedLo) {
			p.changed++
		}
		if !representable || same {
			// The target set has no exact native form for the merged angle
			// (a finite set without the π/4 ladder, or a non-native angle),
			// or the emission is the run itself: put the original gates
			// back.
			for i := len(p.dropSeq) - 1; i >= 0; i-- {
				p.push(p.dropSeq[i])
			}
			p.push(g)
			return
		}
		for i := 0; i < em.Len(); i++ {
			p.push(em.Gate(i, q))
		}
		return
	}
	// Same-axis rotation merging (rx·rx, ry·ry), absorbing the whole run.
	// Always a change: at least two gates collapse into at most one.
	if (g.Name == gate.Rx || g.Name == gate.Ry) && prev.Name == g.Name {
		sum := prev.Params[0] + g.Params[0]
		p.changed++
		p.drop(t)
		for {
			t2 := p.top[q]
			if t2 < 0 || !p.alive[t2] || p.out[t2].Name != g.Name {
				break
			}
			sum += p.out[t2].Params[0]
			p.drop(t2)
		}
		sum = linalg.NormAngle(sum)
		if math.Abs(sum) > 1e-12 {
			p.push(gate.New(g.Name, []int{q}, []float64{sum}))
		}
		return
	}
	p.push(g)
}

// aliveAfter reports whether any output gate after index i is alive.
func (p *cleaner) aliveAfter(i int) bool {
	for _, a := range p.alive[i+1:] {
		if a {
			return true
		}
	}
	return false
}

func (p *cleaner) feed2q(g gate.Gate) {
	a, b := g.Qubits[0], g.Qubits[1]
	ta, tb := p.top[a], p.top[b]
	if ta < 0 || ta != tb || !p.alive[ta] {
		p.push(g)
		return
	}
	prev := p.out[ta]
	if prev.Name != g.Name {
		p.push(g)
		return
	}
	sameOrder := prev.Qubits[0] == a && prev.Qubits[1] == b
	swapped := prev.Qubits[0] == b && prev.Qubits[1] == a
	symmetric := g.Name == gate.CZ || g.Name == gate.Swap ||
		g.Name == gate.Rxx || g.Name == gate.Rzz
	if !sameOrder && !(swapped && symmetric) {
		p.push(g)
		return
	}
	switch g.Name {
	case gate.CX, gate.CZ, gate.Swap:
		p.changed++
		p.drop(ta) // self-inverse pair
		return
	case gate.Rxx, gate.Rzz:
		sum := linalg.NormAngle(prev.Params[0] + g.Params[0])
		p.changed++ // two gates collapse into at most one
		p.drop(ta)
		if math.Abs(sum) > 1e-12 {
			p.push(gate.New(g.Name, []int{a, b}, []float64{sum}))
		}
		return
	}
	p.push(g)
}
