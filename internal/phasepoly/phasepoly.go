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

// FoldChangedFor performs one global phase-folding pass, emitting each
// merged rotation as gs renders it (GateSet.ZRotation). Non-diagonal gates
// are untouched; two-qubit gate count is exactly preserved.
//
// It returns a change count: the number of phase gates absorbed into a
// merge site plus the number of merge sites whose re-emitted ladder
// differs from the original gate. A zero count guarantees the output is
// structurally identical (circuit.Equal) to the input, which is then
// returned itself, so callers can detect no-ops without a deep compare.
//
// A set without a continuous z-rotation renders merged totals over the π/4
// ladder, which is exact only when every absorbed rotation is a multiple
// of π/4 (native finite circuits always are); on any other input, or in a
// set with neither, the fold changes nothing.
func FoldChangedFor(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	if !gs.ZAnyAngle() && !gs.ZLadder() {
		return c, 0
	}
	f := folders.Get().(*folder)
	out, changed := c, 0
	if f.scan(c, !gs.ZAnyAngle()) {
		out, changed = f.emit(c, gs)
	}
	clear(f.out)
	f.out, f.buckets, f.words, f.site = f.out[:0], f.buckets[:0], f.words[:0], f.site[:0]
	clear(f.index)
	folders.Put(f)
	return out, changed
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

// scan assigns every phase gate to the bucket of its qubit's parity: the
// first gate of a bucket is its merge site, later ones are absorbed. With
// ladder set, it reports false, and assigns nothing, when a parameterized
// phase gate's angle is not a multiple of π/4.
//
//guoq:hotpath
func (f *folder) scan(c *circuit.Circuit, ladder bool) bool {
	n := c.NumQubits
	// Every qubit starts with a variable of its own, and every qubit of an
	// untrackable gate gets a fresh one (a new epoch for that wire).
	vars := n
	for _, g := range c.Gates {
		a, ok := gate.ZPhase(g)
		switch {
		case !ok && g.Name != gate.CX && g.Name != gate.X:
			vars += len(g.Qubits)
		case ok && ladder && len(g.Params) > 0 && !linalg.IsMultipleOf(a, math.Pi/4, 1e-9):
			return false
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
	return true
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
func (f *folder) emit(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
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
			em, ok := gs.ZRotation(theta)
			if !ok {
				// A ladder total that drifted past its tolerance: keep
				// the input.
				return c, 0
			}
			if !(em.Len() == 1 && em.Equal(0, b.firstQubit, g)) {
				changed++
			}
			for k := 0; k < em.Len(); k++ {
				o := len(f.out)
				if o < len(c.Gates) && em.Equal(k, b.firstQubit, c.Gates[o]) {
					f.out = append(f.out, c.Gates[o])
					continue
				}
				identical = false
				f.out = append(f.out, em.Gate(k, b.firstQubit))
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

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
