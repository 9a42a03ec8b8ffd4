package rewrite

import (
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// The reference passes: the straightforward forms of cleanup and fusion,
// which build fresh gates, matrices and output circuits on every call. The
// scratch-backed passes in cleanup.go and fuse.go must reproduce their
// output and changed counts exactly (TestPassesMatchReference).

func refCleanupChanged(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	p := &refCleaner{
		gateset: gs.Name,
		gs:      gs,
		alive:   make([]bool, 0, len(c.Gates)),
		top:     make([]int, c.NumQubits),
	}
	for q := range p.top {
		p.top[q] = -1
	}
	for _, g := range c.Gates {
		p.feed(g)
	}
	out := circuit.New(c.NumQubits)
	for i, g := range p.out {
		if p.alive[i] {
			out.Gates = append(out.Gates, g)
		}
	}
	return out, p.changed
}

type refCleaner struct {
	gateset string
	gs      *gateset.GateSet
	out     []gate.Gate
	alive   []bool
	top     []int
	belowQ  [][]int
	changed int
	dropSeq []gate.Gate
}

func (p *refCleaner) push(g gate.Gate) {
	idx := len(p.out)
	p.out = append(p.out, g)
	p.alive = append(p.alive, true)
	prevs := make([]int, len(g.Qubits))
	for k, q := range g.Qubits {
		prevs[k] = p.top[q]
		p.top[q] = idx
	}
	p.belowQ = append(p.belowQ, prevs)
}

func (p *refCleaner) drop(idx int) {
	p.alive[idx] = false
	g := p.out[idx]
	for k, q := range g.Qubits {
		if p.top[q] == idx {
			p.top[q] = p.belowQ[idx][k]
		}
	}
}

func (p *refCleaner) feed(g gate.Gate) {
	if len(g.Params) > 0 {
		g = g.Clone()
		for i := range g.Params {
			if v := linalg.NormAngle(g.Params[i]); v != g.Params[i] {
				g.Params[i] = v
				p.changed++
			}
		}
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

func (p *refCleaner) feed1q(g gate.Gate) {
	q := g.Qubits[0]
	t := p.top[q]
	if t < 0 || !p.alive[t] || len(p.out[t].Qubits) != 1 {
		p.push(g)
		return
	}
	prev := p.out[t]
	prod := linalg.Mul(gate.Matrix(g), gate.Matrix(prev))
	if linalg.EqualUpToPhase(prod, linalg.Identity(2), 1e-10) {
		p.changed++
		p.drop(t)
		return
	}
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
		emitted, representable := p.emitZPhase(linalg.NormAngle(total))
		if !representable {
			for i := droppedLo + 1; i < len(p.out); i++ {
				if p.alive[i] {
					p.changed++
					break
				}
			}
			for i := len(p.dropSeq) - 1; i >= 0; i-- {
				p.push(p.dropSeq[i])
			}
			p.push(g)
			return
		}
		for i := range emitted {
			emitted[i].Qubits = []int{q}
		}
		same := len(emitted) == len(p.dropSeq)+1
		if same {
			for i, m := range emitted {
				orig := g
				if i < len(p.dropSeq) {
					orig = p.dropSeq[len(p.dropSeq)-1-i]
				}
				if !m.Equal(orig) {
					same = false
					break
				}
			}
		}
		if same {
			for i := droppedLo + 1; i < len(p.out); i++ {
				if p.alive[i] {
					same = false
					break
				}
			}
		}
		if !same {
			p.changed++
		}
		for _, m := range emitted {
			p.push(m)
		}
		return
	}
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

func (p *refCleaner) feed2q(g gate.Gate) {
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
		p.drop(ta)
		return
	case gate.Rxx, gate.Rzz:
		sum := linalg.NormAngle(prev.Params[0] + g.Params[0])
		p.changed++
		p.drop(ta)
		if math.Abs(sum) > 1e-12 {
			p.push(gate.New(g.Name, []int{a, b}, []float64{sum}))
		}
		return
	}
	p.push(g)
}

func (p *refCleaner) emitZPhase(theta float64) (out []gate.Gate, ok bool) {
	if math.Abs(theta) < 1e-12 {
		return nil, true
	}
	switch p.gateset {
	case "ibmq20":
		return []gate.Gate{gate.New(gate.U1, []int{0}, []float64{theta})}, true
	case "cliffordt":
		if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return []gate.Gate{gate.New(gate.Rz, []int{0}, []float64{theta})}, true
		}
		return refLadder(theta), true
	default:
		if p.gs == nil || p.gs.Contains(gate.Rz) {
			return []gate.Gate{gate.New(gate.Rz, []int{0}, []float64{theta})}, true
		}
		if p.gs.Contains(gate.U1) {
			return []gate.Gate{gate.New(gate.U1, []int{0}, []float64{theta})}, true
		}
		if p.gs.Contains(gate.S) && p.gs.Contains(gate.Sdg) && p.gs.Contains(gate.T) && p.gs.Contains(gate.Tdg) &&
			linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return refLadder(theta), true
		}
		return nil, false
	}
}

func refLadder(theta float64) []gate.Gate {
	var out []gate.Gate
	for _, n := range gate.PhaseLadder(theta) {
		out = append(out, gate.New(n, []int{0}, nil))
	}
	return out
}

func refFuse1QChanged(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	out := circuit.New(c.NumQubits)
	pending := make([][]gate.Gate, c.NumQubits)
	pendIdx := make([][]int, c.NumQubits)
	changed := 0
	lastOrig := -1
	orderOK := true

	emitOrig := func(g gate.Gate, idx int) {
		out.Gates = append(out.Gates, g)
		if idx < lastOrig {
			orderOK = false
		} else {
			lastOrig = idx
		}
	}

	flush := func(q int) {
		run, idxs := pending[q], pendIdx[q]
		pending[q], pendIdx[q] = nil, nil
		if len(run) == 0 {
			return
		}
		if len(run) == 1 {
			emitOrig(run[0], idxs[0])
			return
		}
		u := linalg.Identity(2)
		for _, g := range run {
			u = linalg.Mul(gate.Matrix(g), u)
		}
		fused := emit1Q(u, q, gs)
		if fused == nil || len(fused) > len(run) || refSeqEqual(fused, run) {
			for i := range run {
				emitOrig(run[i], idxs[i])
			}
			return
		}
		changed++
		out.Gates = append(out.Gates, fused...)
	}

	for i, g := range c.Gates {
		if len(g.Qubits) == 1 {
			q := g.Qubits[0]
			pending[q] = append(pending[q], g)
			pendIdx[q] = append(pendIdx[q], i)
			continue
		}
		for _, q := range g.Qubits {
			flush(q)
		}
		emitOrig(g, i)
	}
	for q := range pending {
		flush(q)
	}
	if !orderOK {
		changed++
	}
	return out, changed
}

func refSeqEqual(a, b []gate.Gate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
