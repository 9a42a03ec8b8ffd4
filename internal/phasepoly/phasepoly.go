// Package phasepoly implements phase folding (Nam et al.'s rotation
// merging), the standard phase-polynomial optimization over {CX, X,
// z-rotations} regions: inside such a region each qubit carries an affine
// function (parity) of the region's input basis, so z-rotations applied to
// equal parities merge additively, wherever they sit in the region.
//
// This is the repository's PyZX proxy (see DESIGN.md §3): like PyZX's
// ZX-calculus pipeline on these benchmarks, it is excellent at reducing T
// count and never changes the two-qubit gate count — the exact behavioural
// profile Figs. 12–14 of the paper rely on.
package phasepoly

import (
	"math"
	"slices"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// Fold performs one global phase-folding pass, emitting the result in the
// named gate set's diagonal vocabulary. Non-diagonal gates are untouched;
// two-qubit gate count is exactly preserved.
func Fold(c *circuit.Circuit, gatesetName string) *circuit.Circuit {
	out, _ := FoldChanged(c, gatesetName)
	return out
}

// FoldChanged is Fold plus a change count: the number of phase gates
// absorbed into a merge site plus the number of merge sites whose
// re-emitted ladder differs from the original gate. A zero count
// guarantees the output is structurally identical (circuit.Equal) to the
// input, which is then returned itself, so callers can detect no-ops
// without a deep compare.
func FoldChanged(c *circuit.Circuit, gatesetName string) (*circuit.Circuit, int) {
	gs, err := gateset.ByName(gatesetName)
	if err != nil {
		gs = nil
	}
	return foldChanged(c, gatesetName, gs)
}

// FoldChangedFor is FoldChanged against a resolved gate set.
func FoldChangedFor(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	return foldChanged(c, gs.Name, gs)
}

// folders recycles the pass's scratch, so a call that changes nothing
// allocates nothing.
var folders = sync.Pool{New: func() any { return &folder{index: map[uint64]int{}} }}

// folder is the pass's scratch. Each qubit's parity, an affine function of
// the region's variables, is a row of stride words plus a constant bit;
// words at and beyond a row's length are zero. Phase gates on equal
// parities share a bucket, found by a hash of the parity's trimmed words
// and confirmed by comparing the words.
type folder struct {
	rows   []uint64
	length []int  // per qubit: words in use
	flip   []bool // per qubit: the constant bit
	stride int

	buckets []bucket
	words   []uint64       // bucket parities, back to back
	index   map[uint64]int // parity hash -> most recent bucket with it
	site    []int          // per gate: a bucket index, siteNone or siteDropped
	out     []gate.Gate
}

type bucket struct {
	firstConst bool
	firstQubit int
	total      float64
	lo, hi     int // the parity, words[lo:hi]
	prev       int // the previous bucket with the same hash, or -1
}

const (
	siteNone    = -1 // not a merge site: emitted as is
	siteDropped = -2 // absorbed into an earlier site
)

func foldChanged(c *circuit.Circuit, gatesetName string, gs *gateset.GateSet) (*circuit.Circuit, int) {
	// Capability pre-check for custom sets: without a continuous z-rotation
	// the merged totals can only be re-emitted over the π/4 ladder, which is
	// exact only when every absorbed rotation is a π/4 multiple (native
	// finite circuits always are); a set with no diagonal vocabulary at all
	// cannot fold.
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
	f := folders.Get().(*folder)
	f.scan(c)
	out, changed := f.emit(c, gatesetName, gs)
	clear(f.out)
	f.out, f.buckets, f.words, f.site = f.out[:0], f.buckets[:0], f.words[:0], f.site[:0]
	clear(f.index)
	folders.Put(f)
	return out, changed
}

// scan assigns every phase gate to the bucket of its qubit's parity: the
// first gate of a bucket is its merge site, later ones are absorbed.
//
//guoq:hotpath
func (f *folder) scan(c *circuit.Circuit) {
	n := c.NumQubits
	// Every qubit starts with a variable of its own, and every qubit of an
	// untrackable gate gets a fresh one (a new epoch for that wire).
	vars := n
	for _, g := range c.Gates {
		if _, ok := gate.ZPhase(g); !ok && g.Name != gate.CX && g.Name != gate.X {
			vars += len(g.Qubits)
		}
	}
	f.stride = (vars + 63) / 64
	f.rows = resize(f.rows, n*f.stride)
	clear(f.rows)
	f.length = resize(f.length, n)
	clear(f.length)
	f.flip = resize(f.flip, n)
	next := 0
	fresh := func(q int) {
		row := f.rows[q*f.stride:]
		clear(row[:f.length[q]])
		row[next/64] = 1 << uint(next%64)
		f.length[q] = next/64 + 1
		f.flip[q] = false
		next++
	}
	for q := 0; q < n; q++ {
		fresh(q)
	}
	for _, g := range c.Gates {
		if a, ok := gate.ZPhase(g); ok {
			q := g.Qubits[0]
			if f.flip[q] {
				a = -a
			}
			f.site = append(f.site, f.merge(q, a))
			continue
		}
		f.site = append(f.site, siteNone)
		switch g.Name {
		case gate.CX:
			cq, tq := g.Qubits[0], g.Qubits[1]
			src, dst := f.rows[cq*f.stride:], f.rows[tq*f.stride:]
			for i := 0; i < f.length[cq]; i++ {
				dst[i] ^= src[i]
			}
			f.length[tq] = max(f.length[tq], f.length[cq])
			f.flip[tq] = f.flip[tq] != f.flip[cq]
		case gate.X:
			f.flip[g.Qubits[0]] = !f.flip[g.Qubits[0]]
		default:
			for _, q := range g.Qubits {
				fresh(q)
			}
		}
	}
}

// merge adds a phase contribution on qubit q's current parity to its
// bucket, returning the gate's site: a new bucket's index, or siteDropped.
func (f *folder) merge(q int, contrib float64) int {
	p := f.rows[q*f.stride : q*f.stride+f.length[q]]
	for len(p) > 0 && p[len(p)-1] == 0 {
		p = p[:len(p)-1]
	}
	h := uint64(14695981039346656037)
	for _, w := range p {
		h = (h ^ w) * 1099511628211
	}
	head, ok := f.index[h]
	if !ok {
		head = -1
	}
	for b := head; b >= 0; b = f.buckets[b].prev {
		if bk := &f.buckets[b]; slices.Equal(f.words[bk.lo:bk.hi], p) {
			bk.total += contrib
			return siteDropped
		}
	}
	f.buckets = append(f.buckets, bucket{
		firstConst: f.flip[q], firstQubit: q, total: contrib,
		lo: len(f.words), hi: len(f.words) + len(p), prev: head,
	})
	f.words = append(f.words, p...)
	f.index[h] = len(f.buckets) - 1
	return len(f.buckets) - 1
}

// emit writes the folded circuit into f.out and counts the changes. An
// emitted gate equal to the input gate at its output position is taken
// from the input, so a call that changes nothing builds no gate, and the
// output circuit is built only when the count is positive.
//
//guoq:hotpath
func (f *folder) emit(c *circuit.Circuit, gatesetName string, gs *gateset.GateSet) (*circuit.Circuit, int) {
	changed := 0
	// identical tracks whether the output still reproduces the input gate
	// for gate: a merged run can re-emit exactly the gates it absorbed
	// (adjacent same-parity phases whose ladder equals them), in which case
	// the pass is a no-op despite having "merged" something.
	identical := true
	for i, g := range c.Gates {
		switch s := f.site[i]; s {
		case siteDropped:
			changed++
		case siteNone:
			identical = identical && len(f.out) < len(c.Gates) && g.Equal(c.Gates[len(f.out)])
			f.out = append(f.out, g)
		default:
			b := &f.buckets[s]
			theta := b.total
			if b.firstConst {
				theta = -theta
			}
			em := emitPhase(theta, gatesetName, gs)
			if !(em.len() == 1 && em.equal(0, b.firstQubit, g)) {
				changed++
			}
			for k := 0; k < em.len(); k++ {
				o := len(f.out)
				if o < len(c.Gates) && em.equal(k, b.firstQubit, c.Gates[o]) {
					f.out = append(f.out, c.Gates[o])
					continue
				}
				identical = false
				f.out = append(f.out, em.gate(k, b.firstQubit))
			}
		}
	}
	if identical && len(f.out) == len(c.Gates) {
		return c, 0
	}
	out := circuit.New(c.NumQubits)
	out.Gates = append(make([]gate.Gate, 0, len(f.out)), f.out...)
	return out, changed
}

// zEmission is a z-rotation rendered in native diagonal gates, before any
// gate is built: one rotation gate (name, theta), or a π/4 ladder.
type zEmission struct {
	name   gate.Name // rz or u1; empty for a ladder
	theta  float64
	ladder []gate.Name
}

func (z zEmission) len() int {
	if z.name != "" {
		return 1
	}
	return len(z.ladder)
}

// equal reports whether the k-th emitted gate on qubit q equals g.
func (z zEmission) equal(k, q int, g gate.Gate) bool {
	if len(g.Qubits) != 1 || g.Qubits[0] != q {
		return false
	}
	if z.name != "" {
		return g.Name == z.name && len(g.Params) == 1 && g.Params[0] == z.theta
	}
	return g.Name == z.ladder[k] && len(g.Params) == 0
}

// gate builds the k-th emitted gate on qubit q.
func (z zEmission) gate(k, q int) gate.Gate {
	if z.name != "" {
		return gate.New(z.name, []int{q}, []float64{z.theta})
	}
	return gate.New(z.ladder[k], []int{q}, nil)
}

// emitPhase renders a z-rotation in the gate set's native diagonal gates.
// gs is the resolved set (nil for unknown names, which keep the historical
// rz fallback).
func emitPhase(theta float64, gatesetName string, gs *gateset.GateSet) zEmission {
	theta = linalg.NormAngle(theta)
	if math.Abs(theta) < 1e-12 {
		return zEmission{}
	}
	switch gatesetName {
	case "ibmq20":
		return zEmission{name: gate.U1, theta: theta}
	case "cliffordt":
		if !linalg.IsMultipleOf(theta, math.Pi/4, 1e-9) {
			return zEmission{name: gate.Rz, theta: theta}
		}
		return zEmission{ladder: gate.PhaseLadder(theta)}
	default:
		// Custom sets emit whatever diagonal vocabulary they carry; the
		// capability pre-check in foldChanged guarantees one exists and
		// that π/4-ladder-only sets never see a non-multiple total.
		if gs == nil || gs.Contains(gate.Rz) {
			return zEmission{name: gate.Rz, theta: theta}
		}
		if gs.Contains(gate.U1) {
			return zEmission{name: gate.U1, theta: theta}
		}
		return zEmission{ladder: gate.PhaseLadder(theta)}
	}
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
