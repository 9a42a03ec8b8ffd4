// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (§6): the tool-versus-GUOQ comparisons
// (Figs. 1, 8, 9, 12), the ablations (Figs. 10, 11, 13, 14), the time
// series of Fig. 7, and the suite summary of Fig. 15. Each driver prints
// the same rows/series the paper reports; EXPERIMENTS.md records the
// measured shapes against the paper's.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

// Config scales an experiment. The paper runs 1 h × 247 benchmarks per
// tool on a server; the defaults here compress both axes proportionally so
// a full figure regenerates in minutes on a laptop (see DESIGN.md §3).
type Config struct {
	// Budget is the wall-clock optimization budget per tool per circuit.
	Budget time.Duration
	// Trials is the number of seeded GUOQ runs per benchmark (10 in the
	// paper) used for the mean and 95% confidence interval.
	Trials int
	// SuiteLimit truncates the 247-circuit suite by even subsampling
	// (0 = full suite).
	SuiteLimit int
	// Shard and Shards statically split the (subsampled) suite across
	// cooperating guoqbench processes: a run with Shard=i, Shards=n works
	// on every n-th circuit starting at i, so n machines sweeping the same
	// configuration cover the suite exactly once with no coordinator.
	// Shards ≤ 1 disables sharding.
	Shard, Shards int
	// Epsilon is the approximation budget for approximate tools (10⁻⁸).
	Epsilon float64
	// Seed is the base random seed.
	Seed int64
	// Out receives the report (defaults to io.Discard if nil).
	Out io.Writer
}

func (cfg *Config) normalize() {
	if cfg.Budget == 0 {
		cfg.Budget = 120 * time.Millisecond
	}
	if cfg.Trials == 0 {
		cfg.Trials = 3
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-8
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
}

// subsample picks limit evenly spaced circuits (0 = all), in suite order.
func subsample(suite []benchmarks.Named, limit int) []benchmarks.Named {
	if limit <= 0 || limit >= len(suite) {
		return suite
	}
	out := make([]benchmarks.Named, 0, limit)
	for i := 0; i < limit; i++ {
		out = append(out, suite[i*len(suite)/limit])
	}
	return out
}

// selectSuite applies the Config's suite selection: even subsampling to
// SuiteLimit, then the static Shard/Shards split. Sharding happens after
// subsampling so shards of the same configuration partition the same
// subsampled suite.
func (cfg Config) selectSuite(suite []benchmarks.Named) []benchmarks.Named {
	suite = subsample(suite, cfg.SuiteLimit)
	if cfg.Shards <= 1 {
		return suite
	}
	shard := cfg.Shard % cfg.Shards
	if shard < 0 {
		shard += cfg.Shards
	}
	var out []benchmarks.Named
	for i := shard; i < len(suite); i += cfg.Shards {
		out = append(out, suite[i])
	}
	return out
}

// Metric computes a scalar from an optimized circuit given its original.
type Metric struct {
	Name string
	// Higher is better for all metrics used in the paper (reductions and
	// fidelity).
	Eval func(orig, opt *circuit.Circuit) float64
}

// TwoQubitReduction is 1 − optimized/original two-qubit count.
func TwoQubitReduction() Metric {
	return Metric{Name: "2q reduction", Eval: func(orig, opt *circuit.Circuit) float64 {
		o := orig.TwoQubitCount()
		if o == 0 {
			return 0
		}
		return 1 - float64(opt.TwoQubitCount())/float64(o)
	}}
}

// TReduction is 1 − optimized/original T count.
func TReduction() Metric {
	return Metric{Name: "T reduction", Eval: func(orig, opt *circuit.Circuit) float64 {
		o := orig.TCount()
		if o == 0 {
			return 0
		}
		return 1 - float64(opt.TCount())/float64(o)
	}}
}

// Fidelity is the estimated success probability under the device model.
func Fidelity(m gateset.FidelityModel) Metric {
	return Metric{Name: "fidelity", Eval: func(_, opt *circuit.Circuit) float64 {
		return m.CircuitFidelity(opt)
	}}
}

// Stats summarizes trials.
type Stats struct {
	Mean float64
	CI95 float64 // half-width of the 95% confidence interval
	N    int
}

// Summarize computes the mean and normal-approximation 95% CI.
func Summarize(values []float64) Stats {
	n := len(values)
	if n == 0 {
		return Stats{}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Stats{Mean: mean, N: 1}
	}
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	return Stats{Mean: mean, CI95: 1.96 * sd / math.Sqrt(float64(n)), N: n}
}

// Verdict compares GUOQ's mean metric to a tool's per benchmark.
type Verdict int

// Verdict values.
const (
	Better Verdict = iota
	Match
	Worse
)

// Compare classifies with a small tolerance (metrics are ratios in [0,1]).
func Compare(guoq, tool float64) Verdict {
	const tol = 1e-9
	switch {
	case guoq > tool+tol:
		return Better
	case guoq < tool-tol:
		return Worse
	default:
		return Match
	}
}

// BenchResult is one benchmark's outcome for one tool and one metric.
type BenchResult struct {
	Bench string
	GUOQ  Stats
	Tool  Stats
}

// Tally counts better/match/worse over a result set.
func Tally(rs []BenchResult) (better, match, worse int) {
	for _, r := range rs {
		switch Compare(r.GUOQ.Mean, r.Tool.Mean) {
		case Better:
			better++
		case Match:
			match++
		case Worse:
			worse++
		}
	}
	return
}

// runTool executes an optimizer over trials and returns metric values.
func runTool(tool baselines.Optimizer, b benchmarks.Named, gs *gateset.GateSet,
	cost opt.Cost, m Metric, cfg Config, trials int) []float64 {
	vals := make([]float64, 0, trials)
	for t := 0; t < trials; t++ {
		out := tool.Optimize(b.Circuit, gs, cost, cfg.Budget, cfg.Seed+int64(t)*7919)
		vals = append(vals, m.Eval(b.Circuit, out))
	}
	return vals
}

// Comparison runs GUOQ against one tool over a suite for one metric. The
// tool runs once per benchmark if deterministic-ish (trials=1 keeps cost
// fair — every tool gets the same per-run budget as the paper).
func Comparison(guoq, tool baselines.Optimizer, suite []benchmarks.Named,
	gs *gateset.GateSet, cost opt.Cost, m Metric, cfg Config) []BenchResult {
	out := make([]BenchResult, 0, len(suite))
	for _, b := range suite {
		g := Summarize(runTool(guoq, b, gs, cost, m, cfg, cfg.Trials))
		tl := Summarize(runTool(tool, b, gs, cost, m, cfg, 1))
		out = append(out, BenchResult{Bench: b.Name, GUOQ: g, Tool: tl})
	}
	// Present sorted by GUOQ's metric, as in the paper's scatter plots.
	sort.Slice(out, func(i, j int) bool { return out[i].GUOQ.Mean < out[j].GUOQ.Mean })
	return out
}

// PrintComparison renders a paper-style block: the per-benchmark series and
// the better/match/worse bar.
func PrintComparison(w io.Writer, title string, m Metric, rs []BenchResult) {
	b, ma, wo := Tally(rs)
	fmt.Fprintf(w, "== %s — %s ==\n", title, m.Name)
	fmt.Fprintf(w, "GUOQ better on %d, match on %d, worse on %d (of %d)\n",
		b, ma, wo, len(rs))
	fmt.Fprintf(w, "%-24s %12s %12s\n", "benchmark", "guoq", "tool")
	for _, r := range rs {
		fmt.Fprintf(w, "%-24s %6.3f±%.3f %6.3f±%.3f\n",
			r.Bench, r.GUOQ.Mean, r.GUOQ.CI95, r.Tool.Mean, r.Tool.CI95)
	}
	fmt.Fprintln(w)
}
