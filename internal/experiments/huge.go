package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

// HugeRow is one tool's outcome on the huge-circuit benchmark.
type HugeRow struct {
	Tool      string  `json:"tool"`
	Gates     int     `json:"gates"`
	TwoQubit  int     `json:"two_qubit"`
	Error     float64 `json:"error"`
	Iters     int     `json:"iters"`
	ElapsedMS int64   `json:"elapsed_ms"`
}

// HugeReport is the JSON snapshot written by the huge experiment.
type HugeReport struct {
	GateSet       string    `json:"gateset"`
	Qubits        int       `json:"qubits"`
	InputGates    int       `json:"input_gates"`
	InputTwoQubit int       `json:"input_two_qubit"`
	BudgetMS      int64     `json:"budget_ms"`
	Workers       int       `json:"workers"`
	Seed          int64     `json:"seed"`
	Rows          []HugeRow `json:"rows"`
}

// Huge benchmarks the large-circuit mode (partition-parallel time windows)
// against the global annealer and the portfolio on a circuit far past the
// practical size for a single global search. The suite's real benchmarks
// top out around a thousand gates, so the huge input is generated: a
// seeded random ibmq20-native circuit (redundancy-rich, like the QFT/adder
// family at scale). All tools get the same wall-clock budget.
func Huge(cfg Config, workers, qubits, gates int, jsonOut io.Writer) (*HugeReport, error) {
	cfg.normalize()
	if workers <= 0 {
		workers = 4
	}
	if qubits <= 0 {
		qubits = 20
	}
	if gates <= 0 {
		gates = 10000
	}
	gs := gateset.IBMQ20
	in := circuit.Random(qubits, gates, gs.Gates, rand.New(rand.NewSource(cfg.Seed)))
	rep := &HugeReport{
		GateSet:       gs.Name,
		Qubits:        qubits,
		InputGates:    in.Len(),
		InputTwoQubit: in.TwoQubitCount(),
		BudgetMS:      cfg.Budget.Milliseconds(),
		Workers:       workers,
		Seed:          cfg.Seed,
	}
	fmt.Fprintf(cfg.Out, "huge-circuit benchmark: %s, %d qubits, %d gates (%d two-qubit), budget %s\n",
		gs.Name, qubits, rep.InputGates, rep.InputTwoQubit, cfg.Budget)
	for _, tool := range []*baselines.GUOQ{
		baselines.NewGUOQ(cfg.Epsilon),
		baselines.NewPortfolio(cfg.Epsilon, workers),
		baselines.NewPartitionParallel(cfg.Epsilon, workers),
	} {
		start := time.Now()
		out, res := tool.OptimizeStats(in, gs, opt.TwoQubitCost(), cfg.Budget, cfg.Seed)
		row := HugeRow{
			Tool:      tool.Name(),
			Gates:     out.Len(),
			TwoQubit:  out.TwoQubitCount(),
			Error:     res.BestError,
			Iters:     res.Iters,
			ElapsedMS: time.Since(start).Milliseconds(),
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(cfg.Out, "  %-18s gates %6d  two-qubit %6d  eps %.2e  iters %8d  %6dms\n",
			row.Tool, row.Gates, row.TwoQubit, row.Error, row.Iters, row.ElapsedMS)
	}
	if jsonOut != nil {
		enc := json.NewEncoder(jsonOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
