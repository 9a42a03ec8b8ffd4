package rewrite

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
)

// Engine is the stateful, incremental rewrite executor. It owns a mutable
// circuit with a persistently maintained DAG (gate windows are spliced in
// and out in place, one linear sweep per transformation, instead of a
// from-scratch BuildDAG per call) and a per-rule match-site cache, so
// iterated full passes — the GUOQ inner loop, fixed-pass pipelines,
// lookahead search — cost far less than the pure FullPass API, which
// reallocates and rescans everything on every call.
//
// Cache and invalidation contract: for every rule the Engine keeps a
// two-state per-anchor verdict — unknown or no-match — so a rescan skips
// known failures outright and runs the matcher everywhere else. A match
// attempt at an anchor only ever inspects gates within the rule's halo
// depth (Rule.HaloDepth, derived from the pattern's per-wire extents at
// compile time) in wire-adjacency steps of the anchor, so after a splice
// only anchors inside a wire-adjacency halo of the touched windows — BFS
// steps from the replaced gates and their boundary wire neighbours, out to
// each rule's own halo depth — can change verdicts; exactly those entries
// are cleared, right after the splice. SetCircuit adopts a whole-circuit
// pass's result as one such splice, over the span between the first and
// the last gate that differ; only Reset drops every cache entry.
//
// All mutations are recorded on a transaction log: Mark returns a point to
// which Rollback restores the exact prior gate sequence (a speculative
// candidate the caller rejected, or a lookahead branch), and Commit accepts
// everything logged. A rollback is an undo splice per logged mutation,
// invalidated like any other splice. GUOQ's loop rolls back only moves
// that raise the cost, so rollbacks are rare there and need no caching of
// their own.
//
// An Engine is not safe for concurrent use; parallel searches thread one
// Engine per worker.
type Engine struct {
	c   *circuit.Circuit
	dag *circuit.DAG

	caches   map[*Rule]*ruleCache
	rules    []*ruleCache // caches in creation order, for stable iteration
	maxDepth int          // deepest per-rule halo among cached rules, for the BFS

	scratch  *matchScratch
	used     []bool
	matchBuf []*Match

	// Mutation assembly scratch.
	winBuf      []circuit.SpliceWindow
	replBuf     []gate.Gate
	byteScratch []byte
	qOffs       []int

	// Halo BFS scratch: epoch-stamped visited marks and a level queue.
	visited []int
	epoch   int
	queue   []int
	levels  []int
	seedQ   []int  // touched-qubit list of the current mutation
	seedQOn []bool // per-qubit membership mark for seedQ

	log []undoRec

	stats EngineStats
}

// Per-anchor cache verdicts.
const (
	cacheUnknown = byte(iota)
	cacheNoMatch
)

// ruleCache is one rule's match cache. state[i] records the verdict for the
// rule anchored at gate i, index-aligned with the gate list across
// splices. depth is the rule's invalidation radius (Rule.HaloDepth),
// computed from the pattern's per-wire extents at compile time.
type ruleCache struct {
	state []byte
	depth int
}

// EngineStats counts engine activity since construction, for tests and
// benchmarks.
type EngineStats struct {
	CacheSkips  int // anchors skipped via a cached no-match verdict
	MatchCalls  int // matchAt invocations (cache misses)
	Splices     int // window replacements applied (including rollbacks)
	Invalidated int // cache entries cleared by halo invalidation
	HaloGates   int // gates swept by halo invalidation BFS passes
	HaloDepth   int // deepest per-rule halo radius in use (gauge)
	Resets      int // full invalidations (Reset)
	Commits     int // accepted transactions (Commit calls)
	Rollbacks   int // reverted transactions (Rollback calls that undid work)
}

// undoWin records one applied window in post-splice coordinates: gates
// [lo, lo+inserted) replaced the removed sequence (a subslice of the
// record's shared backing array).
type undoWin struct {
	lo       int
	inserted int
	removed  []gate.Gate
}

// undoRec is one logged mutation: its applied windows, ascending and
// non-overlapping, in post-splice coordinates.
type undoRec struct {
	wins []undoWin
}

// NewEngine builds an engine over a deep copy of c; the input is never
// mutated. The engine's Circuit() pointer stays stable for its lifetime.
func NewEngine(c *circuit.Circuit) *Engine {
	e := &Engine{
		c:       c.Clone(),
		caches:  map[*Rule]*ruleCache{},
		scratch: newMatchScratch(),
	}
	e.dag = circuit.BuildDAG(e.c)
	return e
}

// Circuit returns the engine's live circuit. It is mutated in place by
// FullPass/ReplaceRegion/SetCircuit/Reset; callers that need a stable copy
// (publishing a best-so-far, recording a result) must use Snapshot.
func (e *Engine) Circuit() *circuit.Circuit { return e.c }

// Snapshot returns a deep copy of the current circuit.
func (e *Engine) Snapshot() *circuit.Circuit { return e.c.Clone() }

// Stats returns activity counters accumulated since construction.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.HaloDepth = e.maxDepth
	return s
}

// Mark returns a point on the transaction log to which Rollback can return.
func (e *Engine) Mark() int { return len(e.log) }

// Commit accepts every logged mutation, discarding the undo state.
func (e *Engine) Commit() {
	e.stats.Commits++
	for i := range e.log {
		e.log[i] = undoRec{}
	}
	e.log = e.log[:0]
}

// Rollback reverts every mutation logged after mark, most recent first,
// restoring the exact prior gate sequence. Each reverted splice is undone
// by a splice back to the removed gates, whose halo is invalidated like a
// forward splice's.
func (e *Engine) Rollback(mark int) {
	if mark >= len(e.log) {
		return
	}
	e.stats.Rollbacks++
	for i := len(e.log) - 1; i >= mark; i-- {
		// Invert in place: each applied window [lo, lo+inserted) goes back
		// to its removed gates. Post coordinates of the forward splice are
		// current coordinates now.
		ws := e.winBuf[:0]
		for _, w := range e.log[i].wins {
			ws = append(ws, circuit.SpliceWindow{Lo: w.lo, Hi: w.lo + w.inserted - 1, Repl: w.removed})
		}
		e.winBuf = ws
		e.multiSplice(ws, false)
		e.log[i] = undoRec{}
	}
	e.log = e.log[:mark]
}

// cacheFor returns (creating if needed) the rule's match cache, sized to
// the current gate count.
func (e *Engine) cacheFor(r *Rule) *ruleCache {
	rc := e.caches[r]
	if rc == nil {
		n := len(e.c.Gates)
		rc = &ruleCache{state: make([]byte, n), depth: r.HaloDepth()}
		e.caches[r] = rc
		e.rules = append(e.rules, rc)
		if rc.depth > e.maxDepth {
			e.maxDepth = rc.depth
		}
	}
	return rc
}

// FullPass applies one full pass of rule r starting at the given anchor,
// in place, and returns the number of sites replaced — bit-for-bit the
// same result as the pure FullPass on a copy of the circuit. The scan
// consults and extends the rule's match cache (skipping cached failures);
// all replacements land in one transaction-logged multi-window splice with
// a single halo invalidation.
//
//guoq:hotpath
func (e *Engine) FullPass(r *Rule, start int) int {
	n := len(e.c.Gates)
	if n == 0 {
		return 0
	}
	rc := e.cacheFor(r)
	if cap(e.used) < n {
		e.used = make([]bool, n)
	}
	used := e.used[:n]
	for i := range used {
		used[i] = false
	}
	ms := findMatches(e.c, e.dag, r, start, e.scratch, used, rc, e.matchBuf[:0], &e.stats)
	if len(ms) == 0 {
		e.matchBuf = ms[:0]
		return 0
	}
	// Assemble the windows in ascending order, exactly like the pure Apply.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Lo < ms[j-1].Lo; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	// Phase one: emit every window's gates into one shared backing buffer,
	// recording offsets (the buffer may reallocate while growing, so
	// subslices are taken only afterwards).
	repl := e.replBuf[:0]
	offs := e.levels[:0] // reuse the levels scratch for offsets
	for _, m := range ms {
		offs = append(offs, len(repl))
		ti := 0
		for i := m.Lo; i <= m.Hi; i++ {
			if ti < len(m.Indices) && m.Indices[ti] == i {
				ti++
				continue
			}
			repl = append(repl, e.c.Gates[i])
		}
		for _, g := range m.Rule.ReplacementCircuitAt(m.Binding) {
			ng := g.Clone()
			for k, pq := range ng.Qubits {
				ng.Qubits[k] = m.QubitMap[pq]
			}
			repl = append(repl, ng)
		}
	}
	offs = append(offs, len(repl))
	e.replBuf = repl
	ws := e.winBuf[:0]
	for i, m := range ms {
		ws = append(ws, circuit.SpliceWindow{Lo: m.Lo, Hi: m.Hi, Repl: repl[offs[i]:offs[i+1]]})
	}
	e.winBuf = ws
	e.levels = offs[:0]
	e.multiSplice(ws, true)
	sites := len(ms)
	for i := range ms {
		ms[i] = nil
	}
	e.matchBuf = ms[:0]
	return sites
}

// ReplaceRegion splices a resynthesized subcircuit in place of a convex
// region, mirroring circuit.Region.Replace: unselected window gates are
// preserved ahead of the replacement, whose local qubits are mapped back to
// the region's global qubits. The mutation is transaction-logged and its
// halo invalidated, so resynthesis moves keep the match cache sound.
func (e *Engine) ReplaceRegion(r *circuit.Region, replacement *circuit.Circuit) {
	if replacement.NumQubits != len(r.Qubits) {
		panic(fmt.Sprintf("rewrite: ReplaceRegion: replacement has %d qubits, region spans %d",
			replacement.NumQubits, len(r.Qubits)))
	}
	repl := e.replBuf[:0]
	ti := 0
	for i := r.Lo; i <= r.Hi; i++ {
		if ti < len(r.Indices) && r.Indices[ti] == i {
			ti++
			continue
		}
		repl = append(repl, e.c.Gates[i])
	}
	for _, g := range replacement.Gates {
		ng := g.Clone()
		for k, q := range ng.Qubits {
			ng.Qubits[k] = r.Qubits[q]
		}
		repl = append(repl, ng)
	}
	e.replBuf = repl
	ws := append(e.winBuf[:0], circuit.SpliceWindow{Lo: r.Lo, Hi: r.Hi, Repl: repl})
	e.winBuf = ws
	e.multiSplice(ws, true)
}

// SetCircuit adopts out's gate list — the result of a whole-circuit pass
// (cleanup, fusion, phase folding) — as one logged splice: the span
// between the first and the last gate that differ bit for bit is replaced,
// and its halo invalidated like a rule's, so match caches outside it
// survive. The engine keeps the gates it splices in (not out's slice); the
// qubit count must be unchanged.
func (e *Engine) SetCircuit(out *circuit.Circuit) {
	if out.NumQubits != e.c.NumQubits {
		panic(fmt.Sprintf("rewrite: SetCircuit: qubit count %d != engine's %d",
			out.NumQubits, e.c.NumQubits))
	}
	old, repl := e.c.Gates, out.Gates
	lo := 0
	for lo < len(old) && lo < len(repl) && sameBits(old[lo], repl[lo]) {
		lo++
	}
	hiOld, hiNew := len(old), len(repl)
	for hiOld > lo && hiNew > lo && sameBits(old[hiOld-1], repl[hiNew-1]) {
		hiOld--
		hiNew--
	}
	if lo == hiOld && lo == hiNew {
		return
	}
	ws := append(e.winBuf[:0], circuit.SpliceWindow{Lo: lo, Hi: hiOld - 1, Repl: repl[lo:hiNew]})
	e.winBuf = ws
	e.multiSplice(ws, true)
}

// sameBits reports whether two gates are identical down to the bits of
// their parameters. gate.Equal is too loose here: it equates −0 and +0,
// which the QASM writer prints differently.
func sameBits(a, b gate.Gate) bool {
	if a.Name != b.Name || !slices.Equal(a.Qubits, b.Qubits) || len(a.Params) != len(b.Params) {
		return false
	}
	for i, p := range a.Params {
		if math.Float64bits(p) != math.Float64bits(b.Params[i]) {
			return false
		}
	}
	return true
}

// Reset adopts a new circuit wholesale — an exchange migration or an async
// resynthesis result — clearing the transaction log and all caches. The
// input is cloned; the engine's Circuit() pointer is stable across Reset.
func (e *Engine) Reset(c *circuit.Circuit) {
	e.c.NumQubits = c.NumQubits
	e.c.Gates = e.c.Gates[:0]
	for _, g := range c.Gates {
		e.c.Gates = append(e.c.Gates, g.Clone())
	}
	for i := range e.log {
		e.log[i] = undoRec{}
	}
	e.log = e.log[:0]
	e.rebuildAll()
}

// rebuildAll recomputes the DAG from the current gate list and wipes every
// rule cache (an adopted circuit has no useful halo).
func (e *Engine) rebuildAll() {
	e.stats.Resets++
	e.dag.Rebuild()
	n := len(e.c.Gates)
	for _, rc := range e.rules {
		if cap(rc.state) < n {
			rc.state = make([]byte, n)
		} else {
			rc.state = rc.state[:n]
			for i := range rc.state {
				rc.state[i] = cacheUnknown
			}
		}
	}
}

// multiSplice applies one transformation's window replacements: a single
// DAG sweep, one cache splice per rule, and one halo invalidation over all
// windows. Windows must be ascending and non-overlapping, in current
// coordinates. When record is set (a forward splice), the inverse is pushed
// on the undo log; Rollback's undo splices pass false.
//
//guoq:hotpath
func (e *Engine) multiSplice(ws []circuit.SpliceWindow, record bool) {
	e.stats.Splices += len(ws)
	// Collect, per window, its touched qubits (removed plus inserted gates)
	// as ranges of one shared list, its post-splice coordinates and — when
	// recording — its removed gates, before the gate list changes.
	if cap(e.seedQOn) < e.c.NumQubits {
		e.seedQOn = make([]bool, e.c.NumQubits)
	}
	on := e.seedQOn[:e.c.NumQubits]
	seeds := e.seedQ[:0]
	qOffs := e.qOffs[:0]
	mark := func(gs []gate.Gate) {
		for _, g := range gs {
			for _, q := range g.Qubits {
				if !on[q] {
					on[q] = true
					seeds = append(seeds, q)
				}
			}
		}
	}
	wins := make([]undoWin, 0, len(ws))
	var removedAll []gate.Gate
	if record {
		total := 0
		for _, w := range ws {
			total += w.Hi - w.Lo + 1
		}
		removedAll = make([]gate.Gate, 0, total)
	}
	delta := 0
	for _, w := range ws {
		qOffs = append(qOffs, len(seeds))
		mark(e.c.Gates[w.Lo : w.Hi+1])
		mark(w.Repl)
		for _, q := range seeds[qOffs[len(qOffs)-1]:] {
			on[q] = false
		}
		win := undoWin{lo: w.Lo + delta, inserted: len(w.Repl)}
		if record {
			// removedAll's capacity is exact, so the subslice stays valid.
			start := len(removedAll)
			removedAll = append(removedAll, e.c.Gates[w.Lo:w.Hi+1]...)
			win.removed = removedAll[start:len(removedAll):len(removedAll)]
		}
		wins = append(wins, win)
		delta += len(w.Repl) - (w.Hi - w.Lo + 1)
	}
	qOffs = append(qOffs, len(seeds))
	if record {
		e.log = append(e.log, undoRec{wins: wins})
	}

	e.dag.MultiSplice(ws)
	for _, rc := range e.rules {
		rc.state = e.multiSpliceBytes(rc.state, ws)
	}
	e.invalidate(wins, seeds, qOffs)

	e.seedQ = seeds[:0]
	e.qOffs = qOffs[:0]
}

// multiSpliceBytes mirrors a multi-window gate splice on a per-anchor byte
// slice: each window's entries are replaced by unknown (zero) bytes. The
// new slice is assembled into a shared scratch buffer that ping-pongs with
// the old storage.
//
//guoq:hotpath
func (e *Engine) multiSpliceBytes(b []byte, ws []circuit.SpliceWindow) []byte {
	out := e.byteScratch[:0]
	i := 0
	for _, w := range ws {
		out = append(out, b[i:w.Lo]...)
		for k := 0; k < len(w.Repl); k++ {
			out = append(out, 0)
		}
		i = w.Hi + 1
	}
	out = append(out, b[i:]...)
	e.byteScratch = b[:0]
	return out
}

// invalidate clears the cache entries in the wire-adjacency halo of the
// applied windows (post coordinates). One BFS over the post-splice DAG —
// seeded with the inserted gates and, per touched wire, the gates just
// outside each window — records each gate's distance from the change; a
// rule's entries are cleared only within its own compiled radius (Rule.HaloDepth, from the pattern's per-wire
// extents), since a match attempt for that rule explores at most that many
// wire steps from its anchor. Keeping the halo per-rule-tight — and much
// tighter than the old pattern-length bound for long narrow patterns — is
// what lets small rules retain most of their cache across unrelated edits.
//
//guoq:hotpath
func (e *Engine) invalidate(wins []undoWin, seeds, qOffs []int) {
	n := len(e.c.Gates)
	if n == 0 {
		return
	}
	depth := e.maxDepth
	e.epoch++
	if cap(e.visited) < n {
		e.visited = make([]int, n)
	}
	visited := e.visited[:n]
	queue := e.queue[:0]
	add := func(i int) {
		if i >= 0 && i < n && visited[i] != e.epoch {
			visited[i] = e.epoch
			queue = append(queue, i)
		}
	}
	for wi, w := range wins {
		for i := w.lo; i < w.lo+w.inserted; i++ {
			add(i)
		}
		for _, q := range seeds[qOffs[wi]:qOffs[wi+1]] {
			wq := e.dag.Wire(q)
			a := sort.SearchInts(wq, w.lo)
			if a > 0 {
				add(wq[a-1])
			}
			b := a
			for b < len(wq) && wq[b] < w.lo+w.inserted {
				b++
			}
			if b < len(wq) {
				add(wq[b])
			}
		}
	}
	// Level-order BFS; levels[d] is the queue length after expanding depth
	// d, so queue[:levels[d]] holds every gate within d steps of the seeds.
	levels := e.levels[:0]
	levels = append(levels, len(queue))
	head := 0
	for d := 1; d <= depth; d++ {
		levelEnd := levels[len(levels)-1]
		for head < levelEnd {
			i := queue[head]
			head++
			next, prev := e.dag.Links(i)
			for _, nb := range next {
				add(nb)
			}
			for _, nb := range prev {
				add(nb)
			}
		}
		levels = append(levels, len(queue))
	}
	e.stats.HaloGates += len(queue)
	for _, rc := range e.rules {
		r := rc.depth
		if r > depth {
			r = depth
		}
		for _, i := range queue[:levels[r]] {
			if rc.state[i] != cacheUnknown {
				rc.state[i] = cacheUnknown
				e.stats.Invalidated++
			}
		}
	}
	e.queue = queue[:0]
	e.levels = levels[:0]
}
