package rewrite

import (
	"sort"

	"github.com/guoq-dev/guoq/internal/circuit"
)

// Match records one occurrence of a rule pattern in a circuit: the matched
// gate indices (ascending), the qubit mapping (pattern-local → global), and
// the bound angle variables.
type Match struct {
	Rule     *Rule
	Indices  []int
	QubitMap []int // QubitMap[patternQubit] = circuit qubit (-1 if unused)
	Binding  []float64
	Lo, Hi   int // window bounds (min/max of Indices)
}

// matchScratch holds the matcher's working state so that repeated matching
// — a full pass, or the Engine's candidate scan — allocates nothing on the
// failure path (the overwhelmingly common one). Between calls the scratch
// maintains the invariants: qmap and rq all -1, taken empty. A successful
// match copies its bindings out into a fresh Match, so the scratch can be
// reused immediately.
type matchScratch struct {
	binding []float64
	bound   []bool
	qmap    []int // pattern qubit -> circuit qubit, -1 unused
	rq      []int // circuit qubit -> pattern qubit, -1 unused
	pos     []int // pattern gate -> circuit index
	matched []bool
	taken   []int // circuit indices matched so far

	// probe, when non-nil, records every circuit gate the attempt inspects
	// (the analysis package's halo audit). Nil on all production paths.
	probe *ProbeTrace
}

// ProbeTrace records the circuit-gate reads of one match attempt, split by
// how much of the gate the matcher examined. Full reads (anchor and wire-
// navigation candidates: name, params, qubits) must stay within the rule's
// declared HaloDepth of the anchor — that is the soundness premise of the
// Engine's cached verdicts. QubitOnly reads come from the window-purity
// scan, which tests only whether an index-interval gate touches a matched
// wire; a gate that does touch one is wire-adjacent to the match and hence
// inside the halo, while a disjoint gate influences the verdict only
// through that disjointness, which splice invalidation re-establishes (any
// replacement gate landing on a matched wire sits inside the halo walked
// from the splice site). analysis.CheckLibrary audits the two classes
// separately.
type ProbeTrace struct {
	Full      []int
	QubitOnly []int
}

// ProbeMatchReads runs one full match attempt of r anchored at anchor —
// cold, with no cache — and returns the trace of circuit gates it read,
// plus whether the pattern matched. It is the probe hook behind the
// analysis package's randomized halo audit and is not used by the Engine.
func ProbeMatchReads(c *circuit.Circuit, d *circuit.DAG, r *Rule, anchor int) (ProbeTrace, bool) {
	s := newMatchScratch()
	s.probe = &ProbeTrace{}
	_, ok := matchAt(c, d, r, anchor, s)
	return *s.probe, ok
}

func newMatchScratch() *matchScratch { return &matchScratch{} }

func (s *matchScratch) ensure(c *circuit.Circuit, r *Rule) {
	for len(s.rq) < c.NumQubits {
		s.rq = append(s.rq, -1)
	}
	for len(s.qmap) < r.NumQubits {
		s.qmap = append(s.qmap, -1)
	}
	if len(s.binding) < r.NumVars {
		s.binding = make([]float64, r.NumVars)
		s.bound = make([]bool, r.NumVars)
	}
	if len(s.pos) < len(r.Pattern) {
		s.pos = make([]int, len(r.Pattern))
		s.matched = make([]bool, len(r.Pattern))
	}
}

// matchAt attempts to match rule r with its anchor (pattern gate 0) at
// circuit gate index anchor. Pattern gates are matched in the rule's BFS
// order: each new pattern gate is located through a wire-adjacency
// constraint against an already-matched neighbour — if the neighbour
// precedes it on a pattern wire, the candidate is the next circuit gate on
// that wire, and symmetrically for following neighbours. All constraints
// must agree on a single candidate.
//
// The match is accepted only if the matched set is a pure window region:
// every gate between the first and last matched index that touches a
// matched qubit is itself matched. That invariant makes the match a convex
// region (§3), so replacement is always semantics-preserving.
//
//guoq:hotpath
func matchAt(c *circuit.Circuit, d *circuit.DAG, r *Rule, anchor int, s *matchScratch) (*Match, bool) {
	s.ensure(c, r)
	m, ok := s.match(c, d, r, anchor)
	// Restore the scratch invariants regardless of where matching bailed.
	for pq := 0; pq < r.NumQubits; pq++ {
		if cq := s.qmap[pq]; cq >= 0 {
			s.rq[cq] = -1
			s.qmap[pq] = -1
		}
	}
	s.taken = s.taken[:0]
	return m, ok
}

//guoq:hotpath
func (s *matchScratch) match(c *circuit.Circuit, d *circuit.DAG, r *Rule, anchor int) (*Match, bool) {
	first := c.Gates[anchor]
	if s.probe != nil {
		s.probe.Full = append(s.probe.Full, anchor)
	}
	pg0 := r.Pattern[0]
	if first.Name != pg0.Name || len(first.Qubits) != len(pg0.Qubits) {
		return nil, false
	}
	for i := 0; i < r.NumVars; i++ {
		s.bound[i] = false
	}
	for i, p := range pg0.Params {
		if !matchParam(p, first.Params[i], s.binding, s.bound) {
			return nil, false
		}
	}
	for k, pq := range pg0.Qubits {
		cq := first.Qubits[k]
		if s.rq[cq] >= 0 {
			return nil, false
		}
		s.qmap[pq] = cq
		s.rq[cq] = pq
	}
	for i := range r.Pattern {
		s.matched[i] = false
	}
	s.pos[0] = anchor
	s.matched[0] = true
	s.taken = append(s.taken[:0], anchor)

	for _, gi := range r.matchOrder[1:] {
		pg := r.Pattern[gi]
		cand := -1
		for k, pq := range pg.Qubits {
			cq := s.qmap[pq]
			if pp := r.prevPat[gi][k]; pp >= 0 && s.matched[pp] {
				// cq is mapped: the neighbour uses the same pattern wire.
				nxt := d.NextOnWire(s.pos[pp], cq)
				if nxt < 0 || (cand >= 0 && cand != nxt) {
					return nil, false
				}
				cand = nxt
			}
			if np := r.nextPat[gi][k]; np >= 0 && s.matched[np] {
				prv := d.PrevOnWire(s.pos[np], cq)
				if prv < 0 || (cand >= 0 && cand != prv) {
					return nil, false
				}
				cand = prv
			}
		}
		if cand < 0 || intsContain(s.taken, cand) {
			return nil, false
		}
		if s.probe != nil {
			s.probe.Full = append(s.probe.Full, cand)
		}
		g := c.Gates[cand]
		if g.Name != pg.Name || len(g.Qubits) != len(pg.Qubits) {
			return nil, false
		}
		for k, pq := range pg.Qubits {
			cq := g.Qubits[k]
			switch {
			case s.qmap[pq] == cq:
			case s.qmap[pq] < 0:
				if s.rq[cq] >= 0 {
					return nil, false
				}
				s.qmap[pq] = cq
				s.rq[cq] = pq
			default:
				return nil, false
			}
		}
		for i, p := range pg.Params {
			if !matchParam(p, g.Params[i], s.binding, s.bound) {
				return nil, false
			}
		}
		s.pos[gi] = cand
		s.matched[gi] = true
		s.taken = append(s.taken, cand)
	}

	// Sort the matched indices ascending (insertion sort: ≤ |pattern|).
	for i := 1; i < len(s.taken); i++ {
		for j := i; j > 0 && s.taken[j] < s.taken[j-1]; j-- {
			s.taken[j], s.taken[j-1] = s.taken[j-1], s.taken[j]
		}
	}
	lo, hi := s.taken[0], s.taken[len(s.taken)-1]
	// Window purity: any gate in [lo,hi] touching a matched qubit must be
	// in the match.
	ti := 0
	for i := lo; i <= hi; i++ {
		if ti < len(s.taken) && s.taken[ti] == i {
			ti++
			continue
		}
		if s.probe != nil {
			s.probe.QubitOnly = append(s.probe.QubitOnly, i)
		}
		for _, q := range c.Gates[i].Qubits {
			if s.rq[q] >= 0 {
				return nil, false
			}
		}
	}
	indices := make([]int, len(s.taken))
	copy(indices, s.taken)
	qm := make([]int, r.NumQubits)
	copy(qm, s.qmap[:r.NumQubits])
	bd := make([]float64, r.NumVars)
	copy(bd, s.binding[:r.NumVars])
	return &Match{
		Rule: r, Indices: indices, QubitMap: qm,
		Binding: bd, Lo: lo, Hi: hi,
	}, true
}

func intsContain(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// findMatches is the pure greedy scan behind FindMatches: non-overlapping
// matches of r collected from start, wrapping around, in anchor order. used
// must be all-false with length len(c.Gates). The Engine's scan
// (matchCandidates) visits the same anchors in the same order, minus those
// its candidate index knows to fail.
//
//guoq:hotpath
func findMatches(c *circuit.Circuit, d *circuit.DAG, r *Rule, start int, s *matchScratch, used []bool, out []*Match) []*Match {
	n := len(c.Gates)
	if start < 0 {
		start = 0
	}
	for k := 0; k < n; k++ {
		anchor := (start + k) % n
		if used[anchor] {
			continue
		}
		if m, ok := matchAt(c, d, r, anchor, s); ok && claim(used, m) {
			out = append(out, m)
		}
	}
	return out
}

// claim marks m's window as used and reports true, unless the window
// overlaps an earlier match of the same pass.
func claim(used []bool, m *Match) bool {
	for i := m.Lo; i <= m.Hi; i++ {
		if used[i] {
			return false
		}
	}
	for i := m.Lo; i <= m.Hi; i++ {
		used[i] = true
	}
	return true
}

// FindMatches scans the whole circuit and returns all non-overlapping
// matches of r, greedily from the given start index, wrapping around. This
// implements the full-pass strategy of §5.3: "perform a full pass through
// the circuit, replacing every disjoint match". Matches whose windows
// overlap an earlier match are skipped.
func FindMatches(c *circuit.Circuit, r *Rule, start int) []*Match {
	n := len(c.Gates)
	if n == 0 {
		return nil
	}
	d := circuit.BuildDAG(c)
	return findMatches(c, d, r, start, newMatchScratch(), make([]bool, n), nil)
}

// Apply replaces every given match in one pass, producing a new circuit.
// Matches must be non-overlapping (as produced by FindMatches).
func Apply(c *circuit.Circuit, matches []*Match) *circuit.Circuit {
	if len(matches) == 0 {
		return c
	}
	sorted := make([]*Match, len(matches))
	copy(sorted, matches)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })

	out := circuit.New(c.NumQubits)
	startAt := map[int]*Match{}
	sel := map[int]bool{}
	for _, m := range sorted {
		startAt[m.Lo] = m
		for _, i := range m.Indices {
			sel[i] = true
		}
	}
	i := 0
	for i < len(c.Gates) {
		m, startsHere := startAt[i]
		if !startsHere {
			out.Gates = append(out.Gates, c.Gates[i])
			i++
			continue
		}
		// Emit unmatched window gates (they touch no matched qubit), then
		// the instantiated replacement.
		for j := m.Lo; j <= m.Hi; j++ {
			if !sel[j] {
				out.Gates = append(out.Gates, c.Gates[j])
			}
		}
		for _, g := range m.Rule.ReplacementCircuitAt(m.Binding) {
			for k, pq := range g.Qubits {
				g.Qubits[k] = m.QubitMap[pq]
			}
			out.Gates = append(out.Gates, g)
		}
		i = m.Hi + 1
	}
	return out
}

// FullPass runs FindMatches + Apply for one rule starting at the given
// anchor, returning the rewritten circuit and the number of sites replaced.
// When nothing matches, the original circuit is returned unchanged.
//
// FullPass is the stateless reference implementation: it rebuilds the DAG
// and rescans every anchor on each call. Every search applies rules
// through an Engine, which keeps both incrementally; FullPass is what the
// engine's tests compare it against.
func FullPass(c *circuit.Circuit, r *Rule, start int) (*circuit.Circuit, int) {
	ms := FindMatches(c, r, start)
	if len(ms) == 0 {
		return c, 0
	}
	return Apply(c, ms), len(ms)
}
