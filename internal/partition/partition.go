// Package partition provides circuit partitioning shared by the
// BQSKit/QUEST-style partition baseline and the parallel optimization
// engine: qubit-bounded blocks for per-block resynthesis, and disjoint
// time windows for partition-parallel search. Every partition is a list
// of circuit.Regions whose selections are pairwise disjoint, so replacing
// each window with an ε_i-equivalent subcircuit yields a circuit within
// Σ ε_i of the original (Thm 4.2 composition).
package partition

import "github.com/guoq-dev/guoq/internal/circuit"

// Blocks splits the circuit into consecutive convex blocks spanning at most
// maxQubits qubits each. Consecutive gate runs are trivially convex. Gates
// wider than maxQubits are never selected; a wide gate acting on qubits
// disjoint from the open block is skipped in place (the Region invariant
// allows unselected window gates on disjoint qubits), and only a wide gate
// that shares qubits with the block closes it. The skipped gate's qubits
// stay blocked for the rest of the block: absorbing one later would put the
// wide gate's qubits inside the selection and break convexity, so a gate
// touching them starts a fresh block instead.
func Blocks(c *circuit.Circuit, maxQubits int) []*circuit.Region {
	var blocks []*circuit.Region
	var cur *circuit.Region
	var curQubits map[int]bool
	var blockedQubits map[int]bool // qubits of wide gates skipped inside cur's window
	flush := func() {
		if cur != nil && len(cur.Indices) > 0 {
			blocks = append(blocks, cur)
		}
		cur = nil
		blockedQubits = nil
	}
	for i, g := range c.Gates {
		if len(g.Qubits) > maxQubits {
			if cur != nil {
				touches := false
				for _, q := range g.Qubits {
					if curQubits[q] {
						touches = true
						break
					}
				}
				if touches {
					flush()
					continue
				}
				if blockedQubits == nil {
					blockedQubits = map[int]bool{}
				}
				for _, q := range g.Qubits {
					blockedQubits[q] = true
				}
			}
			continue
		}
		if cur != nil {
			blocked := false
			extra := 0
			for _, q := range g.Qubits {
				if blockedQubits[q] {
					blocked = true
				}
				if !curQubits[q] {
					extra++
				}
			}
			if !blocked && len(curQubits)+extra <= maxQubits {
				cur.Indices = append(cur.Indices, i)
				cur.Hi = i
				for _, q := range g.Qubits {
					curQubits[q] = true
				}
				continue
			}
			flush()
		}
		curQubits = map[int]bool{}
		for _, q := range g.Qubits {
			curQubits[q] = true
		}
		cur = &circuit.Region{Lo: i, Hi: i, Indices: []int{i}}
	}
	flush()
	for _, b := range blocks {
		fillQubits(c, b)
	}
	return blocks
}

// TimeWindows splits the gate list into at most n consecutive windows of
// near-equal gate count. Each window is a Region selecting every gate in
// its index range, so the windows are disjoint, cover the whole circuit,
// and concatenating their (independently optimized) replacements in order
// reproduces the original unitary up to the summed per-window error.
// minGates is a hard floor: no returned window is narrower, and a circuit
// below 2×minGates (or n < 2) yields nil — partitioning is pointless.
//
// Windows are cut every per = ⌈total/n⌉ gates (at least minGates). A
// trailing sliver narrower than minGates is repaired against its
// predecessor: the pair is split evenly when it carries 2×minGates gates
// (both halves stay within [minGates, per]), and merged only when it does
// not — so a merged window is itself below 2×minGates, never the
// per+minGates−1 an append-to-predecessor merge would produce.
func TimeWindows(c *circuit.Circuit, n, minGates int) []*circuit.Region {
	total := len(c.Gates)
	if n < 2 || total < 2*minGates || total < 2 {
		return nil
	}
	per := (total + n - 1) / n
	if per < minGates {
		per = minGates
	}
	type span struct{ lo, hi int } // inclusive
	var spans []span
	for lo := 0; lo < total; lo += per {
		spans = append(spans, span{lo, min(lo+per, total) - 1})
	}
	if k := len(spans); k >= 2 && spans[k-1].hi-spans[k-1].lo+1 < minGates {
		prev, last := &spans[k-2], &spans[k-1]
		if combined := last.hi - prev.lo + 1; combined >= 2*minGates {
			mid := prev.lo + combined/2
			prev.hi, last.lo = mid-1, mid
		} else {
			prev.hi = last.hi
			spans = spans[:k-1]
		}
	}
	if len(spans) < 2 {
		return nil
	}

	windows := make([]*circuit.Region, 0, len(spans))
	for _, s := range spans {
		r := &circuit.Region{Lo: s.lo, Hi: s.hi}
		for i := s.lo; i <= s.hi; i++ {
			r.Indices = append(r.Indices, i)
		}
		fillQubits(c, r)
		windows = append(windows, r)
	}
	return windows
}

// fillQubits sets the Region's sorted qubit list to the union of the
// selected gates' qubits.
func fillQubits(c *circuit.Circuit, r *circuit.Region) {
	qs := map[int]bool{}
	for _, i := range r.Indices {
		for _, q := range c.Gates[i].Qubits {
			qs[q] = true
		}
	}
	r.Qubits = r.Qubits[:0]
	for q := 0; q < c.NumQubits; q++ {
		if qs[q] {
			r.Qubits = append(r.Qubits, q)
		}
	}
}
