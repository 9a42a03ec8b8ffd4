package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

// Summary is the better/match/worse tally for one (tool, metric) pair.
type Summary struct {
	Tool   string
	Metric string
	Better int
	Match  int
	Worse  int
	// GUOQMean and ToolMean are suite-average metric values (the "28% vs
	// 18% average reduction" numbers of Q1).
	GUOQMean float64
	ToolMean float64
}

func summarize(tool string, m Metric, rs []BenchResult) Summary {
	b, ma, wo := Tally(rs)
	s := Summary{Tool: tool, Metric: m.Name, Better: b, Match: ma, Worse: wo}
	for _, r := range rs {
		s.GUOQMean += r.GUOQ.Mean
		s.ToolMean += r.Tool.Mean
	}
	if len(rs) > 0 {
		s.GUOQMean /= float64(len(rs))
		s.ToolMean /= float64(len(rs))
	}
	return s
}

// compareMany runs GUOQ against each named tool on a gate set and prints
// one comparison block per (tool, metric).
func compareMany(cfg Config, gs *gateset.GateSet, toolNames []string,
	cost opt.Cost, metrics []Metric) ([]Summary, error) {
	cfg.normalize()
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		return nil, err
	}
	suite = cfg.selectSuite(suite)
	guoq := baselines.NewGUOQ(cfg.Epsilon)
	var out []Summary
	for _, tn := range toolNames {
		tool, err := baselines.ByName(tn, cfg.Epsilon)
		if err != nil {
			return nil, err
		}
		for _, m := range metrics {
			rs := Comparison(guoq, tool, suite, gs, cost, m, cfg)
			PrintComparison(cfg.Out, fmt.Sprintf("GUOQ vs %s on %s", tool.Name(), gs.Name), m, rs)
			out = append(out, summarize(tool.Name(), m, rs))
		}
	}
	return out, nil
}

// Fig1 regenerates the headline summary: % benchmarks GUOQ
// better/match/worse against the seven tools on ibmq20, two-qubit gate
// reduction, ε = 10⁻⁸.
func Fig1(cfg Config) ([]Summary, error) {
	tools := []string{"qiskit", "tket", "voqc", "bqskit", "queso", "quartz", "quarl"}
	return compareMany(cfg, gateset.IBMQ20, tools,
		opt.TwoQubitCost(), []Metric{TwoQubitReduction()})
}

// Fig7Series is one best-so-far time series.
type Fig7Series struct {
	Bench    string
	Approach string
	// Times and Counts trace the best two-qubit count over the search.
	Times  []time.Duration
	Counts []int
}

// Fig7 regenerates the barenco_tof_10 / qft_20 time-series comparison of
// rewrite-only vs resynth-only vs combined search on ibmq20. Each approach
// is the GUOQ runner every other figure uses, given 4× the budget.
func Fig7(cfg Config) ([]Fig7Series, error) {
	cfg.normalize()
	suite, err := benchmarks.SuiteFor(gateset.IBMQ20)
	if err != nil {
		return nil, err
	}
	var out []Fig7Series
	for _, benchName := range []string{"barenco_tof_10", "qft_20"} {
		b, ok := benchmarks.ByName(suite, benchName)
		if !ok {
			return nil, fmt.Errorf("experiments: benchmark %s missing", benchName)
		}
		for _, approach := range []struct {
			name string
			mode baselines.GUOQMode
		}{
			{"combined", baselines.ModeFull},
			{"rewrite only", baselines.ModeRewrite},
			{"resynth only", baselines.ModeResynth},
		} {
			series := Fig7Series{Bench: benchName, Approach: approach.name}
			g := baselines.NewGUOQVariant(approach.name, approach.mode, cfg.Epsilon)
			g.OnEvent = func(e opt.Event) {
				if e.Best != nil {
					series.Times = append(series.Times, e.Elapsed)
					series.Counts = append(series.Counts, e.Best.TwoQubitCount())
				}
			}
			// The long-horizon experiment.
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget*4)
			g.Optimize(ctx, b.Circuit, gateset.IBMQ20, opt.TwoQubitCost(), cfg.Seed)
			cancel()
			out = append(out, series)
			fmt.Fprintf(cfg.Out, "== Fig7 %s / %s ==\n", benchName, approach.name)
			fmt.Fprintf(cfg.Out, "start: %d 2q gates\n", b.Circuit.TwoQubitCount())
			for i := range series.Times {
				fmt.Fprintf(cfg.Out, "  %8.2fms  %d\n",
					float64(series.Times[i].Microseconds())/1000, series.Counts[i])
			}
		}
	}
	return out, nil
}

// Fig8 regenerates the ibm-eagle comparison: 2q reduction and fidelity
// against Qiskit, TKET, BQSKit, Quartz, Quarl.
func Fig8(cfg Config) ([]Summary, error) {
	tools := []string{"qiskit", "tket", "bqskit", "quartz", "quarl"}
	model := gateset.ModelFor(gateset.IBMEagle)
	return compareMany(cfg, gateset.IBMEagle, tools,
		opt.FidelityCost(model), []Metric{TwoQubitReduction(), Fidelity(model)})
}

// Fig9 regenerates the ionq comparison against Qiskit, BQSKit, QUESO.
func Fig9(cfg Config) ([]Summary, error) {
	tools := []string{"qiskit", "bqskit", "queso"}
	model := gateset.ModelFor(gateset.IonQ)
	return compareMany(cfg, gateset.IonQ, tools,
		opt.FidelityCost(model), []Metric{TwoQubitReduction(), Fidelity(model)})
}

// Fig10 regenerates the Q2 ablation on ibmq20: GUOQ vs rewrite-only vs
// resynth-only.
func Fig10(cfg Config) ([]Summary, error) {
	tools := []string{"guoq-rewrite", "guoq-resynth"}
	return compareMany(cfg, gateset.IBMQ20, tools,
		opt.TwoQubitCost(), []Metric{TwoQubitReduction()})
}

// Fig11 regenerates the Q3 search-strategy comparison on ibmq20: GUOQ vs
// the two sequential orderings and the beam instantiation.
func Fig11(cfg Config) ([]Summary, error) {
	tools := []string{"guoq-seq-rewrite-resynth", "guoq-seq-resynth-rewrite", "guoq-beam"}
	return compareMany(cfg, gateset.IBMQ20, tools,
		opt.TwoQubitCost(), []Metric{TwoQubitReduction()})
}

// Fig12 regenerates the Clifford+T comparison: T reduction and 2q reduction
// against Qiskit, BQSKit(Synthetiq), Synthetiq, QUESO, PyZX.
func Fig12(cfg Config) ([]Summary, error) {
	tools := []string{"qiskit", "bqskit", "synthetiq", "queso", "pyzx"}
	return compareMany(cfg, gateset.CliffordT, tools,
		opt.TCost(), []Metric{TReduction(), TwoQubitReduction()})
}

// Fig13 regenerates the Q2 ablation for Clifford+T (T reduction).
func Fig13(cfg Config) ([]Summary, error) {
	tools := []string{"guoq-rewrite", "guoq-resynth"}
	return compareMany(cfg, gateset.CliffordT, tools,
		opt.TCost(), []Metric{TReduction()})
}

// Fig14 regenerates the PyZX-pipeline experiment: run GUOQ on PyZX's
// output; report T and CX reduction of GUOQ∘PyZX relative to PyZX alone.
func Fig14(cfg Config) ([]Summary, error) {
	cfg.normalize()
	gs := gateset.CliffordT
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		return nil, err
	}
	suite = cfg.selectSuite(suite)
	pyzx, _ := baselines.ByName("pyzx", cfg.Epsilon)
	guoq := baselines.NewGUOQ(cfg.Epsilon)
	// Strict FTQC cost: never trade a T gate for CX gates.
	strict := func(c *circuit.Circuit) float64 {
		return 1e6*float64(c.TCount()) + float64(c.TwoQubitCount()) + 1e-3*float64(c.Len())
	}

	var tRed, cxRed []BenchResult
	for _, b := range suite {
		base := cfg.optimize(pyzx, b.Circuit, gs, opt.TCost(), cfg.Seed)
		var tVals, cxVals []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			out := cfg.optimize(guoq, base, gs, strict, cfg.Seed+int64(trial)*7919)
			tVals = append(tVals, TReduction().Eval(base, out))
			cxVals = append(cxVals, TwoQubitReduction().Eval(base, out))
		}
		zero := Summarize([]float64{0})
		tRed = append(tRed, BenchResult{Bench: b.Name, GUOQ: Summarize(tVals), Tool: zero})
		cxRed = append(cxRed, BenchResult{Bench: b.Name, GUOQ: Summarize(cxVals), Tool: zero})
	}
	PrintComparison(cfg.Out, "GUOQ on PyZX output (vs PyZX alone)", TReduction(), tRed)
	PrintComparison(cfg.Out, "GUOQ on PyZX output (vs PyZX alone)", TwoQubitReduction(), cxRed)
	return []Summary{
		summarize("pyzx+guoq", TReduction(), tRed),
		summarize("pyzx+guoq", TwoQubitReduction(), cxRed),
	}, nil
}

// Fig15Histogram is one gate set's total-gate-count histogram.
type Fig15Histogram struct {
	GateSet string
	// Buckets counts benchmarks with total gates in [10^k, 10^(k+1)).
	Buckets map[int]int
}

// Fig15 regenerates the benchmark-suite summary: log-scale histograms of
// original total gate counts per gate set.
func Fig15(cfg Config) ([]Fig15Histogram, error) {
	cfg.normalize()
	var out []Fig15Histogram
	for _, gs := range gateset.All() {
		suite, err := benchmarks.SuiteFor(gs)
		if err != nil {
			return nil, err
		}
		h := Fig15Histogram{GateSet: gs.Name, Buckets: map[int]int{}}
		for _, b := range suite {
			n := b.Circuit.Len()
			k := 0
			for p := 1; p*10 <= n; p *= 10 {
				k++
			}
			h.Buckets[k]++
		}
		out = append(out, h)
		fmt.Fprintf(cfg.Out, "== Fig15 %s (total %d benchmarks) ==\n", gs.Name, len(suite))
		for k := 0; k <= 6; k++ {
			if h.Buckets[k] > 0 {
				fmt.Fprintf(cfg.Out, "  [10^%d, 10^%d): %d\n", k, k+1, h.Buckets[k])
			}
		}
	}
	return out, nil
}

// Table2 prints the gate-set inventory.
func Table2(cfg Config) error {
	cfg.normalize()
	fmt.Fprintf(cfg.Out, "== Table 2: gate sets ==\n")
	for _, gs := range gateset.All() {
		fmt.Fprintf(cfg.Out, "%-10s %-14s %v\n", gs.Name, gs.Architecture, gs.Gates)
	}
	return nil
}

// Table3 prints the comparator inventory.
func Table3(cfg Config) error {
	cfg.normalize()
	fmt.Fprintf(cfg.Out, "== Table 3: optimizers ==\n")
	rows := [][2]string{
		{"qiskit", "fixed sequence of passes"},
		{"tket", "fixed sequence of passes"},
		{"voqc", "fixed sequence of passes"},
		{"bqskit", "partition + resynthesize"},
		{"queso", "beam search + rewrite rules"},
		{"quartz", "beam search + rewrite rules"},
		{"quarl", "guided (lookahead) rule search"},
		{"pyzx", "phase-polynomial T reduction"},
		{"guoq", "randomized rules + resynthesis (this paper)"},
	}
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-10s %s\n", r[0], r[1])
	}
	return nil
}
