// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the ablations called out in DESIGN.md. Figure benchmarks
// run a compressed configuration (subsampled suite, milliseconds-scale
// budgets) and report the comparative shape as custom metrics:
//
//	frac_better   fraction of benchmarks where GUOQ strictly wins
//	frac_worse    fraction where the comparator wins
//	guoq_mean     suite-mean metric for GUOQ (reduction or fidelity)
//	tool_mean     suite-mean metric for the comparator
//
// Full-scale regeneration (larger budgets, full 247-circuit suite) is
// `go run ./cmd/guoqbench -exp <id> -limit 0 -budget 2s`; EXPERIMENTS.md
// records measured runs against the paper's numbers.
package guoq

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/experiments"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/phasepoly"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

func benchConfig() experiments.Config {
	return experiments.Config{
		Budget:     100 * time.Millisecond,
		Trials:     2,
		SuiteLimit: 12,
		Epsilon:    1e-8,
		Seed:       1,
	}
}

func reportSummaries(b *testing.B, sums []experiments.Summary) {
	b.Helper()
	for _, s := range sums {
		total := float64(s.Better + s.Match + s.Worse)
		if total == 0 {
			continue
		}
		label := strings.ReplaceAll(s.Tool+"/"+s.Metric, " ", "_")
		b.ReportMetric(float64(s.Better)/total, "frac_better:"+label)
		b.ReportMetric(float64(s.Worse)/total, "frac_worse:"+label)
		b.ReportMetric(s.GUOQMean, "guoq_mean:"+label)
		b.ReportMetric(s.ToolMean, "tool_mean:"+label)
	}
}

// --- Figure/table benchmarks -----------------------------------------------

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Report final best counts per approach for barenco_tof_10.
			for _, s := range series {
				if s.Bench != "barenco_tof_10" || len(s.Counts) == 0 {
					continue
				}
				label := strings.ReplaceAll(s.Approach, " ", "_")
				b.ReportMetric(float64(s.Counts[len(s.Counts)-1]), "final_2q:"+label)
			}
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Fig14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hs, err := experiments.Fig15(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, h := range hs {
				for k, n := range h.Buckets {
					b.ReportMetric(float64(n), fmt.Sprintf("n_1e%d:%s", k, h.GateSet))
				}
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ----------

// timeout returns a context that ends after d: the wall-clock bound of a
// timed run. It is cancelled when the test or benchmark ends.
func timeout(tb testing.TB, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	tb.Cleanup(cancel)
	return ctx
}

// ablationRun measures GUOQ's mean 2q reduction over a small subset under a
// modified option set.
func ablationRun(b *testing.B, tune func(*opt.Options)) float64 {
	b.Helper()
	gs := gateset.IBMEagle
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barenco_tof_4", "tof_5", "adder_6", "vqe_8_2"}
	ts, err := opt.Instantiate(gs, opt.InstantiateOptions{
		EpsilonF: 1e-8, SynthTime: 60 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	for _, name := range names {
		bench, ok := benchmarks.ByName(suite, name)
		if !ok {
			b.Fatalf("missing %s", name)
		}
		opts := opt.DefaultOptions()
		opts.Cost = opt.TwoQubitCost()
		opts.Seed = 1
		opts.Async = true
		tune(&opts)
		opts.Context = timeout(b, 250*time.Millisecond)
		res := opt.GUOQ(bench.Circuit, ts, opts)
		orig := bench.Circuit.TwoQubitCount()
		if orig > 0 {
			total += 1 - float64(res.Best.TwoQubitCount())/float64(orig)
		}
	}
	return total / float64(len(names))
}

func BenchmarkAblationTemperature(b *testing.B) {
	for _, temp := range []float64{0, 1, 10} {
		b.Run(fmt.Sprintf("t=%g", temp), func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablationRun(b, func(o *opt.Options) { o.Temperature = temp })
			}
			b.ReportMetric(red, "mean_2q_reduction")
		})
	}
}

func BenchmarkAblationResynthProb(b *testing.B) {
	// Only meaningful in synchronous mode, where the probability gates the
	// fast/slow mix directly.
	for _, p := range []float64{0.0015, 0.015, 0.15} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablationRun(b, func(o *opt.Options) {
					o.Async = false
					o.ResynthProb = p
				})
			}
			b.ReportMetric(red, "mean_2q_reduction")
		})
	}
}

func BenchmarkAblationSyncVsAsync(b *testing.B) {
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("async=%v", async), func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				red = ablationRun(b, func(o *opt.Options) { o.Async = async })
			}
			b.ReportMetric(red, "mean_2q_reduction")
		})
	}
}

func BenchmarkAblationQubitLimit(b *testing.B) {
	for _, maxQ := range []int{2, 3} {
		b.Run(fmt.Sprintf("maxq=%d", maxQ), func(b *testing.B) {
			gs := gateset.IBMEagle
			ts, err := opt.Instantiate(gs, opt.InstantiateOptions{
				EpsilonF: 1e-8, MaxQubits: maxQ, SynthTime: 60 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			suite, _ := benchmarks.SuiteFor(gs)
			bench, _ := benchmarks.ByName(suite, "tof_5")
			var red float64
			for i := 0; i < b.N; i++ {
				opts := opt.DefaultOptions()
				opts.Cost = opt.TwoQubitCost()
				opts.Async = true
				opts.Seed = 1
				opts.Context = timeout(b, 250*time.Millisecond)
				res := opt.GUOQ(bench.Circuit, ts, opts)
				red = 1 - float64(res.Best.TwoQubitCount())/float64(bench.Circuit.TwoQubitCount())
			}
			b.ReportMetric(red, "2q_reduction_tof5")
		})
	}
}

// --- Parallel engine --------------------------------------------------------

// BenchmarkParallel compares the portfolio and partition-parallel engines
// against the single-threaded loop at equal wall-clock budget.
func BenchmarkParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.Parallel(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSummaries(b, sums)
		}
	}
}

// TestPortfolioNoWorseThanSingleWorker is the scaling acceptance check:
// with 4 workers at the same wall-clock budget, the portfolio's mean
// two-qubit count over a suite sample must not exceed the single-worker
// mean. Equal wall-clock on multi-core hardware means equal *per-worker*
// iteration counts (workers run simultaneously), so the comparison runs
// both engines synchronously with the same per-worker iteration bound and
// migration disabled — fully deterministic on any host (worker 0 then
// reproduces the equally-seeded single run exactly, so the portfolio
// minimum provably cannot be worse), where wall-clock budgets on
// time-sliced CI runners would measure scheduler noise instead of the
// algorithm.
func TestPortfolioNoWorseThanSingleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second comparison")
	}
	gs := gateset.IBMQ20
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := opt.Instantiate(gs, opt.InstantiateOptions{
		EpsilonF:  1e-8,
		SynthTime: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"barenco_tof_4", "tof_5", "adder_6", "vqe_8_2", "qft_8", "gf2mult_4"}
	var singleTotal, portfolioTotal int
	for _, name := range names {
		bench, ok := benchmarks.ByName(suite, name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		for seed := int64(1); seed <= 2; seed++ {
			opts := opt.DefaultOptions()
			opts.Cost = opt.TwoQubitCost()
			opts.MaxIters = 500 // per worker — the equal-wall-clock unit
			opts.Seed = seed
			opts.Async = false
			opts.WarmStart = true
			opts.ExchangeEvery = -1 // independent workers: deterministic
			singleTotal += opt.GUOQ(bench.Circuit, ts, opts).Best.TwoQubitCount()
			portfolioTotal += opt.Portfolio(bench.Circuit, ts, opts, 4).Best.TwoQubitCount()
		}
	}
	t.Logf("mean 2q over %d runs: single=%.1f portfolio=%.1f",
		2*len(names), float64(singleTotal)/float64(2*len(names)), float64(portfolioTotal)/float64(2*len(names)))
	if portfolioTotal > singleTotal {
		t.Errorf("portfolio mean 2q count %d exceeds single-worker %d at equal per-worker iterations",
			portfolioTotal, singleTotal)
	}
}

// --- Two-qubit guardrail ----------------------------------------------------

// guardrailExpect pins the two-qubit count of the deterministic rewrite-only
// optimization of each family's smallest benchmark (ibmq20, seed 1, 400
// synchronous iterations). The run is fully deterministic — rules are exact
// and synchronous mode is seeded — so any increase is a real regression in
// the translation or rewrite stack. Improvements show up as a failure too:
// update the pinned value so the gain is kept.
var guardrailExpect = map[string]int{
	"qft":         18,
	"ghz":         3,
	"qaoa":        22,
	"vqe":         6,
	"ising":       50,
	"heisenberg":  90,
	"qpe":         20,
	"grover":      50,
	"adder":       64,
	"barenco_tof": 18,
	"tof":         12,
	"gf2mult":     72,
	"multiplier":  66,
	"vbe_adder":   82,
	"bv":          3,
	"dj":          4,
	"hiddenshift": 6,
	"wstate":      9,
	"random":      47,
}

// guardrailCount deterministically optimizes a circuit with the rewrite-only
// synchronous search and returns the resulting two-qubit count.
func guardrailCount(t *testing.T, ts []opt.Transformation, c *circuit.Circuit) int {
	t.Helper()
	opts := opt.DefaultOptions()
	opts.Cost = opt.TwoQubitCost()
	opts.MaxIters = 400
	opts.Seed = 1
	opts.Async = false
	opts.WarmStart = true
	return opt.GUOQ(c, opt.FilterFast(ts), opts).Best.TwoQubitCount()
}

func TestTwoQubitGuardrail(t *testing.T) {
	gs := gateset.IBMQ20
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := opt.Instantiate(gs, opt.InstantiateOptions{EpsilonF: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	var order []string
	for _, b := range suite {
		if _, seen := got[b.Family]; seen {
			continue // first of each family is its smallest instance
		}
		got[b.Family] = guardrailCount(t, ts, b.Circuit)
		order = append(order, b.Family)
	}
	for _, fam := range order {
		want, ok := guardrailExpect[fam]
		if !ok {
			t.Errorf("family %-12s 2q=%3d — missing from guardrailExpect, add it", fam, got[fam])
			continue
		}
		switch {
		case got[fam] > want:
			t.Errorf("family %-12s regressed: 2q count %d, expected %d", fam, got[fam], want)
		case got[fam] < want:
			t.Errorf("family %-12s improved: 2q count %d, expected %d — update guardrailExpect to lock in the gain", fam, got[fam], want)
		default:
			t.Logf("family %-12s 2q=%3d ok", fam, got[fam])
		}
	}
	for fam := range guardrailExpect {
		if _, ok := got[fam]; !ok {
			t.Errorf("guardrailExpect lists unknown family %q", fam)
		}
	}
}

// --- Microbenchmarks for the substrates -------------------------------------

func BenchmarkUnitary6Q(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := circuit.Random(6, 60, circuit.DefaultTestVocab, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Unitary()
	}
}

// BenchmarkRuleFullPass is the "before" of the incremental-engine pair: the
// pure, stateless API that rebuilds the DAG and rescans every anchor on
// every call.
func BenchmarkRuleFullPass(b *testing.B) {
	rules, _ := rewrite.RulesFor("nam")
	rng := rand.New(rand.NewSource(2))
	c := circuit.Random(16, 600, gateset.Nam.Gates, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rules[i%len(rules)]
		_, _ = rewrite.FullPass(c, r, i%c.Len())
	}
}

// BenchmarkEngineFullPass is the "after": the identical circuit/rule/anchor
// workload through one persistent rewrite.Engine. Each iteration applies
// the pass in place and rolls it back, so — like the pure benchmark, which
// discards its output — every iteration sees the same input circuit; the
// engine keeps its DAG across iterations and visits only each rule's
// candidate anchors of unknown verdict. It is a smoke benchmark of the apply-and-rollback shape, which
// the search loop rarely takes; TestPerfTrajectory gates the loop's real
// traffic instead.
func BenchmarkEngineFullPass(b *testing.B) {
	rules, _ := rewrite.RulesFor("nam")
	rng := rand.New(rand.NewSource(2))
	c := circuit.Random(16, 600, gateset.Nam.Gates, rng)
	eng := rewrite.NewEngine(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rules[i%len(rules)]
		m := eng.Mark()
		eng.FullPass(r, i%c.Len())
		eng.Rollback(m)
	}
}

// The τ0 pass benchmarks time each pass on a random circuit, where it
// changes something and builds an output, and (the Noop variants) on a
// circuit already at its fixpoint, which is what most of the search loop's
// calls see.

// passSink keeps the benchmarked pass results live.
var passSink *circuit.Circuit

// toFixpoint applies pass until it reports no change. Fusion does not
// reach a fixpoint on every circuit (re-fusing a fused run can round its
// angles differently each time), so the rounds are bounded.
func toFixpoint(b *testing.B, c *circuit.Circuit, pass func(*circuit.Circuit) (*circuit.Circuit, int)) *circuit.Circuit {
	for round := 0; round < 100; round++ {
		out, changed := pass(c)
		if changed == 0 {
			return c
		}
		c = out
	}
	b.Fatal("no fixpoint after 100 rounds")
	return nil
}

func benchPass(b *testing.B, c *circuit.Circuit, pass func(*circuit.Circuit) (*circuit.Circuit, int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		passSink, _ = pass(c)
	}
}

func cleanupCT(c *circuit.Circuit) (*circuit.Circuit, int) {
	return rewrite.CleanupChangedFor(c, gateset.CliffordT)
}

func foldCT(c *circuit.Circuit) (*circuit.Circuit, int) {
	return phasepoly.FoldChangedFor(c, gateset.CliffordT)
}

func fuseEagle(c *circuit.Circuit) (*circuit.Circuit, int) {
	return rewrite.Fuse1QChanged(c, gateset.IBMEagle)
}

func BenchmarkCleanupPass(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchPass(b, circuit.Random(16, 600, gateset.CliffordT.Gates, rng), cleanupCT)
}

func BenchmarkCleanupPassNoop(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchPass(b, toFixpoint(b, circuit.Random(16, 600, gateset.CliffordT.Gates, rng), cleanupCT), cleanupCT)
}

func phaseFoldInput() *circuit.Circuit {
	rng := rand.New(rand.NewSource(4))
	return circuit.Random(16, 600, []gate.Name{gate.T, gate.Tdg, gate.S, gate.X, gate.H, gate.CX}, rng)
}

func BenchmarkPhaseFold(b *testing.B) {
	benchPass(b, phaseFoldInput(), foldCT)
}

func BenchmarkPhaseFoldNoop(b *testing.B) {
	benchPass(b, toFixpoint(b, phaseFoldInput(), foldCT), foldCT)
}

func fuseInput() *circuit.Circuit {
	return circuit.Random(16, 600, gateset.IBMEagle.Gates, rand.New(rand.NewSource(1)))
}

func BenchmarkFuse1QPass(b *testing.B) {
	benchPass(b, fuseInput(), fuseEagle)
}

func BenchmarkFuse1QPassNoop(b *testing.B) {
	benchPass(b, toFixpoint(b, fuseInput(), fuseEagle), fuseEagle)
}

func BenchmarkGrowConvex(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := circuit.Random(16, 600, circuit.DefaultTestVocab, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = circuit.RandomRegion(c, 3, 0, rng)
	}
}

func BenchmarkSynthesize2Q(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	targets := make([]*circuit.Circuit, 8)
	for i := range targets {
		targets[i] = circuit.Random(2, 10, circuit.DefaultTestVocab, rng)
	}
	s := numeric.New(gateset.IBMEagle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Synthesize(targets[i%len(targets)].Unitary(), 2, 1e-8)
	}
}

func BenchmarkSynthesize3QToffoli(b *testing.B) {
	c := circuit.New(3)
	c.Append(gate.NewCCX(0, 1, 2))
	target := gateset.MustTranslate(c, gateset.IBMEagle).Unitary()
	s := numeric.New(gateset.IBMEagle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Synthesize(target, 3, 1e-8)
	}
}

// BenchmarkSynthesizeSuiteBlocks synthesizes a fixed seeded set of 3-qubit
// blocks cut from ibm-eagle suite circuits by RandomRegion, the traffic
// resynthesis sends. ceiling=block passes each block's two-qubit count as
// the ceiling, as resynthesis does; ceiling=none searches to MaxBlocks.
func BenchmarkSynthesizeSuiteBlocks(b *testing.B) {
	suite, err := benchmarks.SuiteFor(gateset.IBMEagle)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var blocks []*circuit.Circuit
	for len(blocks) < 12 {
		c := suite[rng.Intn(len(suite))].Circuit
		if r := circuit.RandomRegion(c, 3, 0, rng); r != nil && len(r.Qubits) == 3 && len(r.Indices) >= 2 {
			blocks = append(blocks, r.Extract(c))
		}
	}
	targets := make([]linalg.Matrix, len(blocks))
	for i, blk := range blocks {
		targets[i] = blk.Unitary()
	}
	s := numeric.New(gateset.IBMEagle)
	s.MaxTime = 0 // measure the search, not the deadline
	for _, bc := range []struct {
		name    string
		ceiling func(blk *circuit.Circuit) int
	}{
		{"ceiling=block", (*circuit.Circuit).TwoQubitCount},
		{"ceiling=none", func(*circuit.Circuit) int { return s.MaxBlocks }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, blk := range blocks {
					_, _ = s.SynthesizeBounded(context.Background(), targets[j], 3, 1e-8, bc.ceiling(blk))
				}
			}
		})
	}
}

// BenchmarkTranslateSuiteSample translates the first 20 suite circuits
// into each built-in: the NISQ suite into the continuous sets and the
// Clifford+T suite into cliffordt.
func BenchmarkTranslateSuiteSample(b *testing.B) {
	for _, gs := range gateset.All() {
		suite := benchmarks.Suite()[:20]
		if !gs.Continuous() {
			suite = benchmarks.CliffordTSuite()[:20]
		}
		b.Run(gs.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, bench := range suite {
					if _, err := gateset.Translate(bench.Circuit, gs); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkGUOQEndToEnd(b *testing.B) {
	gs := gateset.IBMEagle
	suite, _ := benchmarks.SuiteFor(gs)
	bench, _ := benchmarks.ByName(suite, "adder_6")
	tool := baselines.NewGUOQ(1e-8)
	cost := opt.TwoQubitCost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := tool.OptimizeStats(bench.Circuit, gs, cost, 200*time.Millisecond, int64(i))
		if i == b.N-1 {
			b.ReportMetric(float64(out.TwoQubitCount()), "final_2q_adder6")
		}
	}
}
