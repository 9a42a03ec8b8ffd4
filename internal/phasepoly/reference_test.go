package phasepoly

import (
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// refFoldChanged is the reference phase fold: parities as growable
// bitsets keyed by strings, and an output circuit built gate by gate on
// every call. The scratch-backed pass in phasepoly.go must reproduce its
// output and changed count exactly (TestFoldMatchesReference).
func refFoldChanged(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	if gs != nil && !gs.Builtin() && !gs.Contains(gate.Rz) && !gs.Contains(gate.U1) {
		if !(gs.Contains(gate.S) && gs.Contains(gate.Sdg) && gs.Contains(gate.T) && gs.Contains(gate.Tdg)) {
			return c, 0
		}
		for _, g := range c.Gates {
			if a, ok := gate.ZPhase(g); ok && !linalg.IsMultipleOf(a, math.Pi/4, 1e-9) {
				return c, 0
			}
		}
	}
	n := c.NumQubits
	nextVar := 0
	state := make([]refParity, n)
	fresh := func(q int) {
		w := nextVar / 64
		b := make([]uint64, w+1)
		b[w] = 1 << uint(nextVar%64)
		state[q] = refParity{bits: b}
		nextVar++
	}
	for q := 0; q < n; q++ {
		fresh(q)
	}

	type bucket struct {
		firstIdx   int
		firstConst bool
		firstQubit int
		total      float64
	}
	buckets := map[string]*bucket{}
	drop := make([]bool, c.Len())
	siteOf := make([]string, c.Len())

	for i, g := range c.Gates {
		if a, ok := gate.ZPhase(g); ok {
			q := g.Qubits[0]
			st := state[q]
			key := st.key()
			contrib := a
			if st.c {
				contrib = -a
			}
			if b, seen := buckets[key]; seen {
				b.total += contrib
				drop[i] = true
			} else {
				buckets[key] = &bucket{firstIdx: i, firstConst: st.c, firstQubit: q, total: contrib}
				siteOf[i] = key
			}
			continue
		}
		switch g.Name {
		case gate.CX:
			cq, tq := g.Qubits[0], g.Qubits[1]
			state[tq].xorWith(state[cq])
		case gate.X:
			state[g.Qubits[0]].c = !state[g.Qubits[0]].c
		default:
			for _, q := range g.Qubits {
				fresh(q)
			}
		}
	}

	out := circuit.New(n)
	changed := 0
	identical := true
	emit := func(g gate.Gate) {
		if identical && (len(out.Gates) >= len(c.Gates) || !g.Equal(c.Gates[len(out.Gates)])) {
			identical = false
		}
		out.Gates = append(out.Gates, g)
	}
	for i, g := range c.Gates {
		if drop[i] {
			changed++
			continue
		}
		if key := siteOf[i]; key != "" {
			b := buckets[key]
			theta := b.total
			if b.firstConst {
				theta = -theta
			}
			emitted := refEmitPhase(theta, b.firstQubit, gs.Name, gs)
			if !(len(emitted) == 1 && emitted[0].Equal(g)) {
				changed++
			}
			for _, m := range emitted {
				emit(m)
			}
			continue
		}
		emit(g.Clone())
	}
	if identical && len(out.Gates) == len(c.Gates) {
		changed = 0
	}
	return out, changed
}

type refParity struct {
	bits []uint64
	c    bool
}

func (p *refParity) xorWith(q refParity) {
	for i := range q.bits {
		for len(p.bits) <= i {
			p.bits = append(p.bits, 0)
		}
		p.bits[i] ^= q.bits[i]
	}
	p.c = p.c != q.c
}

func (p refParity) key() string {
	end := len(p.bits)
	for end > 0 && p.bits[end-1] == 0 {
		end--
	}
	buf := make([]byte, 0, end*8)
	for _, w := range p.bits[:end] {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

func refEmitPhase(theta float64, q int, gatesetName string, gs *gateset.GateSet) []gate.Gate {
	theta = linalg.NormAngle(theta)
	if math.Abs(theta) < 1e-12 {
		return nil
	}
	switch gatesetName {
	case "ibmq20":
		return []gate.Gate{gate.NewU1(theta, q)}
	case "cliffordt":
		if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return []gate.Gate{gate.NewRz(theta, q)}
		}
		return refLadder(theta, q)
	default:
		if gs == nil || gs.Contains(gate.Rz) {
			return []gate.Gate{gate.NewRz(theta, q)}
		}
		if gs.Contains(gate.U1) {
			return []gate.Gate{gate.NewU1(theta, q)}
		}
		return refLadder(theta, q)
	}
}

func refLadder(theta float64, q int) []gate.Gate {
	var out []gate.Gate
	for _, n := range gate.PhaseLadder(theta) {
		out = append(out, gate.New(n, []int{q}, nil))
	}
	return out
}
