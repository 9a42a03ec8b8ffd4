package opt

import (
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// Metrics is the optimizer's bundle of pre-resolved instrument handles.
// Resolving registry names once here — instead of per observation on the
// hot path — keeps the loop's per-iteration cost at a nil check plus an
// atomic. A nil *Metrics disables instrumentation entirely (every handle
// method is a no-op on nil), so Options.Metrics composes with zero
// overhead when unset.
//
// One Metrics may back any number of concurrent searches (portfolio
// members, partition windows): counters sum and gauges show the latest
// writer, which is the fleet-level view a scrape wants. Resynthesis is
// timed by SynthSeconds wherever it runs, in the loop or on a search's
// background goroutine.
type Metrics struct {
	// Search loop.
	Iterations      *obs.Counter
	Accepts         *obs.CounterVec // by transformation name
	Rejects         *obs.CounterVec // by transformation name
	ProposalSeconds *obs.Histogram  // fast (rewrite-class) application latency
	SynthSeconds    *obs.Histogram  // slow (resynthesis-class) application latency
	EpsilonSpent    *obs.Gauge
	BestCost        *obs.Gauge
	Migrations      *obs.Counter

	// rewrite.Engine activity, flushed once per finished run (the engine
	// keeps its own cheap int counters; moving them here per splice would
	// put atomics inside FullPass).
	EngineCacheHits   *obs.Counter
	EngineCacheMisses *obs.Counter
	EngineRuleSkips   *obs.Counter
	EnginePassSkips   *obs.Counter
	EngineSplices     *obs.Counter
	EngineInvalidated *obs.Counter
	EngineHaloGates   *obs.Counter
	EngineHaloDepth   *obs.Gauge
	EngineCommits     *obs.Counter
	EngineRollbacks   *obs.Counter
	EngineResets      *obs.Counter
}

// NewMetrics registers the optimizer's metric families on reg and returns
// the resolved handles. A nil registry returns nil, which every consumer
// accepts as "no instrumentation".
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Iterations:      reg.Counter("guoq_iterations_total", "Search loop iterations."),
		Accepts:         reg.CounterVec("guoq_accepts_total", "Accepted applications per transformation.", "transformation"),
		Rejects:         reg.CounterVec("guoq_rejects_total", "Rejected candidate applications per transformation.", "transformation"),
		ProposalSeconds: reg.Histogram("guoq_proposal_seconds", "Latency of fast (rewrite-class) applications.", nil),
		SynthSeconds:    reg.Histogram("guoq_synth_seconds", "Latency of slow (resynthesis-class) applications.", nil),
		EpsilonSpent:    reg.Gauge("guoq_epsilon_spent", "Accumulated error bound of the current search point."),
		BestCost:        reg.Gauge("guoq_best_cost", "Cost of the best solution found so far."),
		Migrations:      reg.Counter("guoq_migrations_total", "Exchange adoptions across all searches."),

		EngineCacheHits:   reg.Counter("guoq_engine_cache_hits_total", "Anchors a rule pass skipped unmatched: not a candidate (another gate name than the rule's first) or a recorded no-match. A skipped pass (guoq_engine_rule_skips_total) visits no anchor and counts none."),
		EngineCacheMisses: reg.Counter("guoq_engine_cache_misses_total", "Match attempts at candidates of unknown verdict."),
		EngineRuleSkips:   reg.Counter("guoq_engine_rule_skips_total", "Rule passes skipped because the rule found nothing on the same gate sequence."),
		EnginePassSkips:   reg.Counter("guoq_engine_pass_skips_total", "Cleanup, fusion and phase-folding passes skipped because they changed nothing on the same gate sequence."),
		EngineSplices:     reg.Counter("guoq_engine_splices_total", "Window replacements applied (including rollbacks)."),
		EngineInvalidated: reg.Counter("guoq_engine_invalidated_total", "Verdict bits reopened by halo invalidation."),
		EngineHaloGates:   reg.Counter("guoq_engine_halo_gates_total", "Gates swept by halo invalidation BFS passes."),
		EngineHaloDepth:   reg.Gauge("guoq_engine_halo_depth", "Deepest per-rule (per-wire extent) halo radius in use."),
		EngineCommits:     reg.Counter("guoq_engine_commits_total", "Accepted transactions."),
		EngineRollbacks:   reg.Counter("guoq_engine_rollbacks_total", "Rejected (reverted) transactions."),
		EngineResets:      reg.Counter("guoq_engine_resets_total", "Full cache invalidations (Reset: an adopted exchange or async result)."),
	}
}

// AddEngineStats folds one finished engine's cumulative counters into the
// shared metrics. Safe on nil.
func (m *Metrics) AddEngineStats(st rewrite.EngineStats) {
	if m == nil {
		return
	}
	m.EngineCacheHits.Add(int64(st.CacheSkips))
	m.EngineCacheMisses.Add(int64(st.MatchCalls))
	m.EngineRuleSkips.Add(int64(st.RuleSkips))
	m.EnginePassSkips.Add(int64(st.PassSkips))
	m.EngineSplices.Add(int64(st.Splices))
	m.EngineInvalidated.Add(int64(st.Invalidated))
	m.EngineHaloGates.Add(int64(st.HaloGates))
	if st.HaloDepth > 0 {
		m.EngineHaloDepth.Set(float64(st.HaloDepth))
	}
	m.EngineCommits.Add(int64(st.Commits))
	m.EngineRollbacks.Add(int64(st.Rollbacks))
	m.EngineResets.Add(int64(st.Resets))
}

// RuleStats is one transformation's attribution line in a Result: how
// often it was attempted (selected and run), and how its candidates fared.
// Attempts that produced no candidate (no match site, synthesis failure)
// count in Attempts only.
type RuleStats struct {
	Attempts int
	Accepted int
	Rejected int
}

// MergeRules folds src's per-rule attribution into r (parallel modes sum
// their workers' tables).
func (r *Result) MergeRules(src *Result) {
	if len(src.Rules) == 0 {
		return
	}
	if r.Rules == nil {
		r.Rules = make(map[string]*RuleStats, len(src.Rules))
	}
	for name, s := range src.Rules {
		d := r.Rules[name]
		if d == nil {
			d = &RuleStats{}
			r.Rules[name] = d
		}
		d.Attempts += s.Attempts
		d.Accepted += s.Accepted
		d.Rejected += s.Rejected
	}
}

// ruleTally is the loop-local attribution slot for one transformation:
// the Result's stats line plus the pre-resolved labeled counters (nil
// without metrics). Transformations sharing a Name — the resynthesis ε
// classes — share one slot.
type ruleTally struct {
	stats   *RuleStats
	accepts *obs.Counter
	rejects *obs.Counter
}

// newTally resolves one attribution slot per distinct transformation name.
func newTally(ts []Transformation, m *Metrics) (map[Transformation]*ruleTally, map[string]*ruleTally) {
	byT := make(map[Transformation]*ruleTally, len(ts))
	byName := make(map[string]*ruleTally, len(ts))
	for _, t := range ts {
		name := t.Name()
		e := byName[name]
		if e == nil {
			e = &ruleTally{stats: &RuleStats{}}
			if m != nil {
				e.accepts = m.Accepts.With(name)
				e.rejects = m.Rejects.With(name)
			}
			byName[name] = e
		}
		byT[t] = e
	}
	return byT, byName
}

func (e *ruleTally) attempt() {
	if e != nil {
		e.stats.Attempts++
	}
}

func (e *ruleTally) accept() {
	if e != nil {
		e.stats.Accepted++
		e.accepts.Inc()
	}
}

func (e *ruleTally) reject() {
	if e != nil {
		e.stats.Rejected++
		e.rejects.Inc()
	}
}
