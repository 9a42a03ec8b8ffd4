package baselines

import (
	"context"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

// GUOQ wraps the paper's algorithm behind the Optimizer interface, with the
// variant knobs used across Q1–Q4.
type GUOQ struct {
	Tool string
	// Mode selects the transformation set / search strategy.
	Mode GUOQMode
	// Epsilon is the global error budget ε_f.
	Epsilon float64
	// Async enables asynchronous resynthesis.
	Async bool
	// Parallelism is the number of concurrent search workers (0 or 1 =
	// the classic single-threaded loop). Workers form a portfolio with
	// diversified seeds/temperatures exchanging the best solution.
	Parallelism int
	// Partition additionally splits large circuits into disjoint time
	// windows optimized concurrently (ε split across windows, Thm 4.2) —
	// the huge-circuit mode; circuits too small to window fall back to the
	// portfolio.
	Partition bool
	// Exchanger, when set, connects the run to an external best-so-far
	// store (a guoqd coordinator via internal/dist): a single-worker run
	// polls it directly, a portfolio relays through its in-process
	// coordinator.
	Exchanger opt.Exchanger
	// MaxIters bounds search iterations (0 = unlimited): with a synchronous
	// single worker and no deadline it makes a run bit-reproducible.
	MaxIters int
	// Registry, when set, supplies the transformation portfolio the search
	// samples from in place of the default instantiation — the extension
	// point behind the public API's custom rules, synthesizers, and gate
	// sets. Nil selects opt.DefaultRegistry(), whose build is identical to
	// the historical hardcoded construction (seeded runs unchanged).
	Registry *opt.Registry
	// OnEvent, when set, receives opt.Event progress reports from the
	// search (improvements, heartbeats, and a final event per worker); the
	// hook behind the public Session's Events stream. Must be safe for
	// concurrent use in parallel modes.
	OnEvent func(opt.Event)
	// Metrics, when set, mirrors the search's counters into an obs
	// registry (iterations, per-rule accept/reject attribution, engine
	// cache statistics, synthesis latency); nil keeps the hot loop
	// instrumentation-free. Build one with opt.NewMetrics.
	Metrics *opt.Metrics
}

// GUOQMode selects among the paper's search variants.
type GUOQMode int

const (
	// ModeFull is GUOQ proper: rules + resynthesis, random interleaving.
	ModeFull GUOQMode = iota
	// ModeRewrite is GUOQ-REWRITE (rules only).
	ModeRewrite
	// ModeResynth is GUOQ-RESYNTH (resynthesis only).
	ModeResynth
	// ModeSeqRewriteResynth is GUOQ-SEQ: rewrite first, then resynthesis.
	ModeSeqRewriteResynth
	// ModeSeqResynthRewrite is GUOQ-SEQ: resynthesis first, then rewrite.
	ModeSeqResynthRewrite
	// ModeBeam is GUOQ-BEAM (the MaxBeam instantiation of the framework).
	ModeBeam
)

// NewGUOQ builds the full algorithm with the paper's defaults, including
// asynchronous resynthesis (§5.3): the synthesis worker stays busy while
// rewrite moves keep running, which preserves the paper's fast/slow balance
// at compressed wall-clock budgets.
func NewGUOQ(eps float64) *GUOQ {
	return &GUOQ{Tool: "guoq", Mode: ModeFull, Epsilon: eps, Async: true}
}

// NewGUOQVariant builds a named ablation variant.
func NewGUOQVariant(tool string, mode GUOQMode, eps float64) *GUOQ {
	return &GUOQ{Tool: tool, Mode: mode, Epsilon: eps}
}

// NewPortfolio builds the parallel portfolio runner: `workers` concurrent
// GUOQ searches exchanging the best-so-far solution (workers ≤ 0 selects
// one worker per available CPU, capped at 8).
func NewPortfolio(eps float64, workers int) *GUOQ {
	if workers <= 0 {
		workers = opt.AutoWorkers()
	}
	return &GUOQ{Tool: "portfolio", Mode: ModeFull, Epsilon: eps, Async: true, Parallelism: workers}
}

// NewPartitionParallel builds the partition-parallel runner: large
// circuits are split into disjoint time windows optimized concurrently.
func NewPartitionParallel(eps float64, workers int) *GUOQ {
	p := NewPortfolio(eps, workers)
	p.Tool = "partition-parallel"
	p.Partition = true
	return p
}

// Name implements Optimizer.
func (g *GUOQ) Name() string { return g.Tool }

// Optimize implements Optimizer.
func (g *GUOQ) Optimize(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, seed int64) *circuit.Circuit {
	out, _ := g.OptimizeStatsContext(ctx, c, gs, cost, seed)
	return out
}

// OptimizeStats is OptimizeStatsContext bounded by a wall-clock budget: a
// positive budget becomes the deadline of a fresh context, and budget ≤ 0
// sets none.
func (g *GUOQ) OptimizeStats(c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) (*circuit.Circuit, *opt.Result) {
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	return g.OptimizeStatsContext(ctx, c, gs, cost, seed)
}

// OptimizeStatsContext is Optimize plus the search statistics: the returned
// Result carries the accumulated ε bound, iteration/acceptance counts and
// exchange migrations for the circuit actually returned (BestError is 0
// when the never-worse guard falls back to the input), accurate however
// the run ends (the anytime contract). The search, and a synthesis call in
// flight, end when ctx is done. A deadline on ctx also caps each synthesis
// call at a quarter of the time left, at most 500 ms; without one the run
// ends only on cancellation (or MaxIters), with synthesis calls capped at
// 500 ms. The benchmark recorder (internal/experiments.Bench) and the
// public Session consume the statistics; plain comparisons use Optimize.
func (g *GUOQ) OptimizeStatsContext(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, seed int64) (*circuit.Circuit, *opt.Result) {
	synthTime := 500 * time.Millisecond
	if deadline, ok := ctx.Deadline(); ok {
		synthTime = min(time.Until(deadline)/4, synthTime)
	}
	// QUESO's rule compositions subsume rotation merging; our smaller
	// hand-built libraries express that capability as the phase-folding
	// τ_0, included for every gate set (DESIGN.md §3 and §5).
	reg := g.Registry
	if reg == nil {
		reg = opt.DefaultRegistry()
	}
	ts, err := reg.Build(gs, opt.InstantiateOptions{
		EpsilonF:      g.Epsilon,
		MaxQubits:     3,
		SynthTime:     synthTime,
		WithPhaseFold: true,
	})
	if err != nil {
		return c, &opt.Result{Best: c}
	}
	opts := opt.DefaultOptions()
	opts.Epsilon = g.Epsilon
	opts.Cost = cost
	opts.Seed = seed
	opts.Async = g.Async
	opts.WarmStart = true
	opts.Exchanger = g.Exchanger
	opts.MaxIters = g.MaxIters
	opts.OnEvent = g.OnEvent
	opts.Metrics = g.Metrics
	opts.Context = ctx

	var res *opt.Result
	switch g.Mode {
	case ModeRewrite:
		res = opt.GUOQ(c, opt.FilterFast(ts), opts)
	case ModeResynth:
		res = opt.GUOQ(c, opt.FilterSlow(ts), opts)
	case ModeSeqRewriteResynth:
		res = opt.GUOQSeq(c, ts, opts, true)
	case ModeSeqResynthRewrite:
		res = opt.GUOQSeq(c, ts, opts, false)
	case ModeBeam:
		res = opt.Beam(c, ts, opts, 32)
	default:
		switch {
		case g.Partition && g.Parallelism > 1:
			res = opt.PartitionParallel(c, ts, opts, g.Parallelism)
		case g.Parallelism > 1:
			res = opt.Portfolio(c, ts, opts, g.Parallelism)
		default:
			res = opt.GUOQ(c, ts, opts)
		}
	}
	out := keepBetter(c, res.Best, cost)
	if out != res.Best {
		// The guard rejected the search's best: the caller gets the exact
		// input back, so its accumulated bound is 0 by definition.
		guarded := *res
		guarded.Best, guarded.BestError = out, 0
		return out, &guarded
	}
	return out, res
}
