package rewrite

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// Engine is the stateful, incremental rewrite executor. It owns a mutable
// circuit with a persistently maintained DAG (gate windows are spliced in
// and out in place, one linear sweep per transformation, instead of a
// from-scratch BuildDAG per call) and a candidate index of match sites, so
// iterated full passes — the GUOQ inner loop, fixed-pass pipelines,
// lookahead search — cost far less than the pure FullPass API, which
// reallocates and rescans everything on every call.
//
// Cache and invalidation contract: an anchor is a candidate for a rule only
// when its gate's name is the name of the rule's first pattern gate (the
// matcher rejects every other anchor at its first check). For every rule
// the Engine keeps one verdict bit per gate: set means a candidate whose
// verdict is unknown, clear means another gate name or a recorded failure.
// A pass runs the matcher only at set bits, in the same rotated anchor
// order as the pure scan, so it finds the same matches. A match attempt at
// an anchor only ever inspects gates within the rule's halo depth
// (Rule.HaloDepth, derived from the pattern's per-wire extents at compile
// time) in wire-adjacency steps of the anchor, so after a splice only
// anchors inside a wire-adjacency halo of the touched windows — BFS steps
// from the replaced gates and their boundary wire neighbours, out to each
// rule's own halo depth — can change verdicts; exactly those candidates are
// reopened, right after the splice, and every inserted gate starts as a
// candidate of each rule of its name. SetCircuit adopts a whole-circuit
// pass's result as one such splice, with a window per stretch of gates
// that differ; only Reset reopens every candidate.
//
// Versions: the engine numbers its gate sequence. Every forward splice and
// every Reset takes a fresh number from a counter that only grows, and
// Rollback(mark) restores the number of the sequence it restores, so one
// number never names two sequences. A rule pass that found nothing
// records the version it ran at, and so does a τ₀ pass run through
// ApplyPass; while that version is current the pass is skipped. "No
// match" does not depend on the start anchor, which the caller has drawn
// already, and a τ₀ pass is a deterministic function of the gate sequence
// and its gate set, so a skipped pass returns what running it would.
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
	maxDepth int // deepest per-rule halo among cached rules, for the BFS

	// version names the current gate sequence; versions is the last
	// number drawn. quiet holds, per τ₀ pass and gate set, the version at
	// which the pass last changed nothing.
	version  uint64
	versions uint64
	quiet    map[passKey]uint64

	// The candidate index, aligned with the gate list and spliced like it.
	// kind[i] is gate i's interned name; verd[i*words:(i+1)*words] holds
	// gate i's verdict bits, one per rule cache. kindMask holds, per kind,
	// the bits of the rules whose first pattern gate has that name, and
	// depthMask, per halo level 0..maxDepth, the bits of the rules whose
	// halo reaches that level; both rows are words wide.
	words     int
	kindIDs   map[gate.Name]int32
	kind      []int32
	verd      []uint64
	kindMask  []uint64
	depthMask []uint64

	scratch  *matchScratch
	used     []bool // all false between passes
	matchBuf []*Match

	// Mutation assembly scratch; kindScratch and verdScratch ping-pong with
	// kind and verd.
	winBuf      []circuit.SpliceWindow
	replBuf     []gate.Gate
	kindScratch []int32
	verdScratch []uint64
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

// ruleCache locates one rule's verdict bit in every gate's verdict words:
// word indexes the word and bit masks the bit. Caches take bits in
// creation order. quiet is the version at which the rule's last pass
// found nothing (0, which no sequence has, if none did).
type ruleCache struct {
	word  int
	bit   uint64
	quiet uint64
}

// passKey names one τ₀ pass run for one gate set.
type passKey struct {
	pass *Pass
	gs   *gateset.GateSet
}

// EngineStats counts engine activity since construction, for tests and
// benchmarks.
type EngineStats struct {
	CacheSkips  int // anchors a pass sent neither to the used check nor to the matcher; a skipped pass counts none
	MatchCalls  int // matchAt invocations (candidates of unknown verdict)
	RuleSkips   int // rule passes skipped: the rule found nothing at the current version
	PassSkips   int // τ₀ passes (ApplyPass) skipped: the pass changed nothing at the current version
	Splices     int // window replacements applied (including rollbacks)
	Invalidated int // verdict bits reopened by halo invalidation
	HaloGates   int // gates swept by halo invalidation BFS passes
	HaloDepth   int // deepest per-rule halo radius in use (gauge)
	RuleCaches  int // rules with a verdict bit (gauge)
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
// non-overlapping, in post-splice coordinates, and the version of the
// sequence it replaced.
type undoRec struct {
	wins    []undoWin
	version uint64
}

// NewEngine builds an engine over a deep copy of c; the input is never
// mutated. The engine's Circuit() pointer stays stable for its lifetime.
func NewEngine(c *circuit.Circuit) *Engine {
	e := &Engine{
		c:       c.Clone(),
		caches:  map[*Rule]*ruleCache{},
		quiet:   map[passKey]uint64{},
		kindIDs: map[gate.Name]int32{},
		scratch: newMatchScratch(),
	}
	e.dag = circuit.BuildDAG(e.c)
	e.indexAll()
	e.renumber()
	return e
}

// renumber gives the current gate sequence a fresh version.
func (e *Engine) renumber() {
	e.versions++
	e.version = e.versions
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
	s.RuleCaches = len(e.caches)
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
// restoring the exact prior gate sequence and its version. Each reverted
// splice is undone by a splice back to the removed gates, whose halo is
// invalidated like a forward splice's.
func (e *Engine) Rollback(mark int) {
	if mark >= len(e.log) {
		return
	}
	e.stats.Rollbacks++
	version := e.log[mark].version
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
	e.version = version
}

// cacheFor returns (creating if needed) the rule's verdict bit. A new rule
// takes the next bit, widening every gate's verdict words when the current
// ones are full, and starts with every gate of its first pattern gate's
// name as a candidate of unknown verdict.
func (e *Engine) cacheFor(r *Rule) *ruleCache {
	if rc, ok := e.caches[r]; ok {
		return rc
	}
	idx := len(e.caches)
	if idx == 64*e.words {
		w := e.words
		e.verd = widen(e.verd, len(e.kind), w)
		e.kindMask = widen(e.kindMask, len(e.kindIDs), w)
		e.depthMask = widen(e.depthMask, e.maxDepth+1, w)
		e.words++
	}
	w := e.words
	rc := &ruleCache{word: idx / 64, bit: 1 << (idx % 64)}
	e.caches[r] = rc
	depth := r.HaloDepth()
	if depth > e.maxDepth {
		e.depthMask = append(e.depthMask, make([]uint64, (depth-e.maxDepth)*w)...)
		e.maxDepth = depth
	}
	for l := 0; l <= depth; l++ {
		e.depthMask[l*w+rc.word] |= rc.bit
	}
	k := e.kindOf(r.Pattern[0].Name)
	e.kindMask[int(k)*w+rc.word] |= rc.bit
	for i, ki := range e.kind {
		if ki == k {
			e.verd[i*w+rc.word] |= rc.bit
		}
	}
	return rc
}

// widen copies a table of rows words wide into one of rows words+1 wide,
// the new word of every row zero.
func widen(s []uint64, rows, words int) []uint64 {
	out := make([]uint64, rows*(words+1))
	for r := 0; r < rows; r++ {
		copy(out[r*(words+1):], s[r*words:(r+1)*words])
	}
	return out
}

// kindOf interns a gate name, giving a new name an all-zero mask row.
func (e *Engine) kindOf(n gate.Name) int32 {
	k, ok := e.kindIDs[n]
	if !ok {
		k = int32(len(e.kindIDs))
		e.kindIDs[n] = k
		e.kindMask = append(e.kindMask, make([]uint64, e.words)...)
	}
	return k
}

// FullPass applies one full pass of rule r starting at the given anchor,
// in place, and returns the number of sites replaced — bit-for-bit the
// same result as the pure FullPass on a copy of the circuit. A rule that
// found nothing at the current version is not scanned again. Otherwise
// the scan visits only the rule's candidates of unknown verdict and
// records each failure; all replacements land in one transaction-logged
// multi-window splice with a single halo invalidation.
//
//guoq:hotpath
func (e *Engine) FullPass(r *Rule, start int) int {
	if len(e.c.Gates) == 0 {
		return 0
	}
	rc := e.cacheFor(r)
	if rc.quiet == e.version {
		e.stats.RuleSkips++
		return 0
	}
	ms := e.matchCandidates(r, rc, start)
	if len(ms) == 0 {
		rc.quiet = e.version
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
		// The instantiated gates are fresh: map their qubits in place.
		for _, g := range m.Rule.ReplacementCircuitAt(m.Binding) {
			for k, pq := range g.Qubits {
				g.Qubits[k] = m.QubitMap[pq]
			}
			repl = append(repl, g)
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

// matchCandidates is the engine's greedy scan: the same non-overlapping
// matches of r, in the same order, as the pure scan from start, found by
// running the matcher only at anchors whose verdict bit is set. A failed
// attempt clears the bit; a match keeps it, since its window is about to
// be spliced away (or, when it clashes with an earlier match, still
// matches).
//
//guoq:hotpath
func (e *Engine) matchCandidates(r *Rule, rc *ruleCache, start int) []*Match {
	n := len(e.c.Gates)
	if start < 0 {
		start = 0
	}
	start %= n
	if cap(e.used) < n {
		e.used = make([]bool, n)
	}
	used := e.used[:n]
	verd, w, bit := e.verd[rc.word:], e.words, rc.bit
	out := e.matchBuf[:0]
	visited := 0
	for lo, hi := start, n; ; lo, hi = 0, start {
		for i := lo; i < hi; i++ {
			v := &verd[i*w]
			if *v&bit == 0 {
				continue
			}
			visited++
			if used[i] {
				continue
			}
			e.stats.MatchCalls++
			m, ok := matchAt(e.c, e.dag, r, i, e.scratch)
			if !ok {
				*v &^= bit
				continue
			}
			if claim(used, m) {
				out = append(out, m)
			}
		}
		if lo == 0 {
			break
		}
	}
	e.stats.CacheSkips += n - visited
	for _, m := range out {
		clear(used[m.Lo : m.Hi+1])
	}
	return out
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
// (cleanup, fusion, phase folding) — as one logged splice with a window per
// changed stretch, each halo-invalidated like a rule's, so match caches
// outside the windows survive, between them too. After the common prefix
// and suffix are trimmed, the two lists are walked together; at each
// difference they resync at the nearest point, within resyncReach gates in
// each, where two consecutive gates agree bit for bit, and failing one the
// rest is a single window. The engine keeps the gates it splices in (not
// out's slice); the qubit count must be unchanged.
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
	old, repl = old[:hiOld], repl[:hiNew]
	ws := e.winBuf[:0]
	for i, j := lo, lo; i < hiOld || j < hiNew; {
		// old[i] and repl[j] differ, or one list has run out.
		a, b, ok := resync(old, repl, i, j)
		if !ok {
			ws = append(ws, circuit.SpliceWindow{Lo: i, Hi: hiOld - 1, Repl: repl[j:]})
			break
		}
		ws = append(ws, circuit.SpliceWindow{Lo: i, Hi: a - 1, Repl: repl[j:b]})
		i, j = a+2, b+2
		for i < hiOld && j < hiNew && sameBits(old[i], repl[j]) {
			i++
			j++
		}
	}
	e.winBuf = ws
	e.multiSplice(ws, true)
}

// resyncReach bounds how far past a difference SetCircuit looks, in each
// gate list, for the lists to agree again.
const resyncReach = 8

// resync finds where old and repl agree again from old[i] and repl[j]: the
// nearest a >= i and b >= j, by (a-i)+(b-j) and then by a, such that
// old[a:a+2] and repl[b:b+2] are the same bits, within resyncReach of i and
// j.
func resync(old, repl []gate.Gate, i, j int) (a, b int, ok bool) {
	for d := 0; d <= 2*resyncReach; d++ {
		for da := max(0, d-resyncReach); da <= min(d, resyncReach); da++ {
			a, b = i+da, j+d-da
			if a+1 < len(old) && b+1 < len(repl) && sameBits(old[a], repl[b]) && sameBits(old[a+1], repl[b+1]) {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}

// Pass is a whole-circuit τ₀ pass, such as cleanup, single-qubit fusion
// or phase folding. Run must be a deterministic function of the circuit
// and the gate set, whatever scratch it pools, and must return a zero
// change count exactly when its output equals its input.
type Pass struct {
	Name string
	Run  func(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int)
}

// ApplyPass runs p for gs on the engine's circuit, adopts its output
// through SetCircuit when it changed something, and returns its change
// count. A pass that changed nothing is remembered with the current
// version and skipped, returning 0, whenever that version is current.
func (e *Engine) ApplyPass(p *Pass, gs *gateset.GateSet) int {
	k := passKey{p, gs}
	if e.quiet[k] == e.version {
		e.stats.PassSkips++
		return 0
	}
	out, changed := p.Run(e.c, gs)
	if changed == 0 {
		e.quiet[k] = e.version
		return 0
	}
	e.SetCircuit(out)
	return changed
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
// resynthesis result — under a fresh version, clearing the transaction log
// and reopening every candidate. The input is cloned; the engine's
// Circuit() pointer is stable across Reset.
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
	e.stats.Resets++
	e.dag.Rebuild()
	e.indexAll()
	e.renumber()
}

// indexAll rebuilds the candidate index from the current gate list: every
// gate is a candidate of unknown verdict for each rule of its name (an
// adopted circuit has no useful halo).
func (e *Engine) indexAll() {
	w := e.words
	e.kind = e.kind[:0]
	e.verd = e.verd[:0]
	for _, g := range e.c.Gates {
		k := e.kindOf(g.Name)
		e.kind = append(e.kind, k)
		e.verd = append(e.verd, e.kindMask[int(k)*w:int(k+1)*w]...)
	}
}

// multiSplice applies one transformation's window replacements: a single
// DAG sweep, one splice of the candidate index, and one halo invalidation
// over all windows. Windows must be ascending and non-overlapping, in
// current coordinates. When record is set (a forward splice), the inverse
// is pushed on the undo log and the new sequence takes a fresh version;
// Rollback's undo splices pass false.
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
		e.log = append(e.log, undoRec{wins: wins, version: e.version})
		e.renumber()
	}

	e.dag.MultiSplice(ws)
	e.spliceIndex(ws)
	e.invalidate(wins, seeds, qOffs)

	e.seedQ = seeds[:0]
	e.qOffs = qOffs[:0]
}

// spliceIndex mirrors a multi-window gate splice on the candidate index:
// each window's entries are replaced by its inserted gates' kinds, each a
// candidate of unknown verdict for every rule of its name. The new arrays
// are assembled into scratch buffers that ping-pong with the old storage.
//
//guoq:hotpath
func (e *Engine) spliceIndex(ws []circuit.SpliceWindow) {
	w := e.words
	kind, verd := e.kindScratch[:0], e.verdScratch[:0]
	i := 0
	for _, win := range ws {
		kind = append(kind, e.kind[i:win.Lo]...)
		verd = append(verd, e.verd[i*w:win.Lo*w]...)
		for _, g := range win.Repl {
			k := e.kindOf(g.Name)
			kind = append(kind, k)
			verd = append(verd, e.kindMask[int(k)*w:int(k+1)*w]...)
		}
		i = win.Hi + 1
	}
	kind = append(kind, e.kind[i:]...)
	verd = append(verd, e.verd[i*w:]...)
	e.kindScratch, e.kind = e.kind[:0], kind
	e.verdScratch, e.verd = e.verd[:0], verd
}

// invalidate reopens the candidates in the wire-adjacency halo of the
// applied windows (post coordinates). One BFS over the post-splice DAG —
// seeded with the inserted gates and, per touched wire, the gates just
// outside each window — records each gate's distance from the change; a
// rule's candidates are reopened only within its own compiled radius
// (Rule.HaloDepth, from the pattern's per-wire extents), since a match
// attempt for that rule explores at most that many wire steps from its
// anchor. A gate at distance ℓ gets, in one OR per word, the bits its kind
// and that level's depth mask share. Keeping the halo per-rule-tight — and
// much tighter than the old pattern-length bound for long narrow patterns —
// is what lets small rules retain most of their verdicts across unrelated
// edits.
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
	w := e.words
	lo := 0
	for l, hi := range levels {
		dm := e.depthMask[l*w : (l+1)*w]
		for _, i := range queue[lo:hi] {
			km := e.kindMask[int(e.kind[i])*w:]
			v := e.verd[i*w : (i+1)*w]
			for j := range v {
				if reopen := km[j] & dm[j] &^ v[j]; reopen != 0 {
					v[j] |= reopen
					e.stats.Invalidated += bits.OnesCount64(reopen)
				}
			}
		}
		lo = hi
	}
	e.queue = queue[:0]
	e.levels = levels[:0]
}
