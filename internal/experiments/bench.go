package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
)

// CircuitResult is the machine-readable outcome of optimizing one
// benchmark circuit — the per-circuit record behind guoqbench -json.
type CircuitResult struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	GateSet string `json:"gateset"`
	Qubits  int    `json:"qubits"`

	GatesBefore    int `json:"gates_before"`
	GatesAfter     int `json:"gates_after"`
	TwoQubitBefore int `json:"twoq_before"`
	TwoQubitAfter  int `json:"twoq_after"`
	TBefore        int `json:"t_before"`
	TAfter         int `json:"t_after"`

	// Err is the accumulated ε upper bound of the returned circuit.
	Err float64 `json:"err"`
	// WallMillis is the measured optimization wall time.
	WallMillis float64 `json:"wall_ms"`
	Iters      int     `json:"iters"`
	Migrations int     `json:"migrations,omitempty"`
	Worker     string  `json:"worker,omitempty"`

	// AllocsPerIter is the heap allocations per search iteration across
	// this circuit's run (BenchOptions.Metrics only) — the cheapest
	// regression signal for hot-loop allocation creep.
	AllocsPerIter float64 `json:"allocs_per_iter,omitempty"`
	// Metrics is the circuit's full metric snapshot (BenchOptions.Metrics
	// only): each circuit runs against a fresh registry, so counters such
	// as guoq_engine_cache_hits_total and per-rule accept series are
	// per-circuit, letting a reader chart cache-hit trajectories across
	// the suite.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchOptions configures a Bench sweep.
type BenchOptions struct {
	// GateSet is the target gate set (default "ibmq20"). The objective is
	// the gate set's natural one: T-count for cliffordt, two-qubit count
	// otherwise.
	GateSet string
	// Workers is the per-circuit portfolio size (≤ 1 = single worker).
	Workers int
	// Worker names this process in each result, so merged shard outputs
	// say where each circuit ran.
	Worker string
	// JSON, when set, receives the per-circuit results as an indented JSON
	// array, streamed one element per finished circuit (the array is valid
	// JSON once the sweep ends — including a cancelled sweep). Writing to a
	// terminal therefore shows live per-circuit progress in -json mode.
	JSON io.Writer
	// Context, when set, cancels the sweep: the loop stops between
	// circuits, the in-flight circuit's search returns its best-so-far
	// (recorded like any other result), and Bench returns everything
	// completed so far without error — cancellation is a normal anytime
	// outcome, not a failure. Nil means context.Background().
	Context context.Context
	// Metrics adds a per-circuit observability snapshot to every result:
	// AllocsPerIter (heap allocations per search iteration) and the full
	// metric registry of that circuit's run. Each circuit gets a fresh
	// registry, so the series are per-circuit, not cumulative.
	Metrics bool
}

// jsonArrayStream incrementally writes a JSON array, one element per emit,
// so a consumer tailing the output sees records as they complete and a
// cancelled sweep still ends with valid JSON.
type jsonArrayStream struct {
	w io.Writer
	n int
}

func (s *jsonArrayStream) emit(v any) error {
	raw, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return err
	}
	sep := "[\n  "
	if s.n > 0 {
		sep = ",\n  "
	}
	s.n++
	_, err = fmt.Fprintf(s.w, "%s%s", sep, raw)
	return err
}

func (s *jsonArrayStream) close() error {
	if s.n == 0 {
		_, err := io.WriteString(s.w, "[]\n")
		return err
	}
	_, err := io.WriteString(s.w, "\n]\n")
	return err
}

// Bench sweeps benchmark circuits through GUOQ once each and records
// per-circuit results: gate counts before/after, the accumulated ε bound,
// and wall time. The sweep covers the Config's suite selection (subsample,
// then shard), so n processes run with Shard 0..n−1 cover the suite once.
func Bench(cfg Config, bo BenchOptions) ([]CircuitResult, error) {
	cfg.normalize()
	if bo.GateSet == "" {
		bo.GateSet = "ibmq20"
	}
	ctx := bo.Context
	if ctx == nil {
		ctx = context.Background()
	}
	gs, err := gateset.ByName(bo.GateSet)
	if err != nil {
		return nil, err
	}
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		return nil, err
	}
	cost := opt.TwoQubitCost()
	if gs.Name == "cliffordt" {
		cost = opt.TCost()
	}
	var runner *baselines.GUOQ
	if bo.Workers > 1 {
		runner = baselines.NewPortfolio(cfg.Epsilon, bo.Workers)
	} else {
		runner = baselines.NewGUOQ(cfg.Epsilon)
	}

	var stream *jsonArrayStream
	if bo.JSON != nil {
		stream = &jsonArrayStream{w: bo.JSON}
	}

	runOne := func(b benchmarks.Named) CircuitResult {
		// Fresh registry per circuit (the sweep is sequential, so swapping
		// the runner's bundle between circuits is race-free): each result
		// carries its own counters instead of a running total.
		var reg *obs.Registry
		var ms0 runtime.MemStats
		if bo.Metrics {
			reg = obs.NewRegistry()
			runner.Metrics = opt.NewMetrics(reg)
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		out, stats := runner.OptimizeStatsContext(ctx, b.Circuit, gs, cost, cfg.Budget, cfg.Seed)
		wall := time.Since(start)
		r := CircuitResult{
			Name:           b.Name,
			Family:         b.Family,
			GateSet:        gs.Name,
			Qubits:         b.Circuit.NumQubits,
			GatesBefore:    b.Circuit.Len(),
			GatesAfter:     out.Len(),
			TwoQubitBefore: b.Circuit.TwoQubitCount(),
			TwoQubitAfter:  out.TwoQubitCount(),
			TBefore:        b.Circuit.TCount(),
			TAfter:         out.TCount(),
			Err:            stats.BestError,
			WallMillis:     float64(wall.Microseconds()) / 1e3,
			Iters:          stats.Iters,
			Migrations:     stats.Migrations,
			Worker:         bo.Worker,
		}
		if bo.Metrics {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			if stats.Iters > 0 {
				r.AllocsPerIter = float64(ms1.Mallocs-ms0.Mallocs) / float64(stats.Iters)
			}
			r.Metrics = reg.Snapshot()
		}
		fmt.Fprintf(cfg.Out, "%-24s gates %5d -> %5d  2q %5d -> %5d  ε=%.3g  %7.1fms\n",
			r.Name, r.GatesBefore, r.GatesAfter, r.TwoQubitBefore, r.TwoQubitAfter, r.Err, r.WallMillis)
		return r
	}

	var results []CircuitResult
	for _, b := range cfg.selectSuite(suite) {
		if ctx.Err() != nil {
			break // cancelled: return what completed, valid JSON and all
		}
		r := runOne(b)
		results = append(results, r)
		if stream != nil {
			if err := stream.emit(r); err != nil {
				return finish(results, stream, err)
			}
		}
	}
	return finish(results, stream, nil)
}

// finish closes the JSON stream (keeping the first error) and returns.
func finish(results []CircuitResult, stream *jsonArrayStream, err error) ([]CircuitResult, error) {
	if stream != nil {
		if cerr := stream.close(); err == nil {
			err = cerr
		}
	}
	return results, err
}
