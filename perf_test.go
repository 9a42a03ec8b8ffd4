package guoq

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/experiments"
)

// TestPerfTrajectory is the CI perf gate: it re-measures the hot-loop
// benchmarks and fails if they regress past the pinned snapshot in
// BENCH_hotloop.json plus the documented noise tolerance. It is opt-in —
// benchmarks are meaningless under `go test ./...` parallelism — and runs
// as its own serial CI step:
//
//	GUOQ_PERF_CHECK=1  go test -run TestPerfTrajectory -count=1 .   # gate
//	GUOQ_PERF_UPDATE=1 go test -run TestPerfTrajectory -count=1 .   # refresh snapshot
//
// Three gates, strictest first:
//
//   - allocs/op is machine-independent and near-deterministic, so it gets
//     the tight tolerance (AllocsFrac) plus a hard absolute ceiling
//     (MaxAllocs) that holds even if someone refreshes the snapshot past it.
//   - the engine-vs-stateless speedup ratio is measured in-process, so it
//     cancels out machine speed; it must not fall below the snapshot ratio
//     by more than RatioFrac, and never below MinSpeedup.
//   - raw ns/op is machine-dependent; it is gated loosely (NsFrac) to catch
//     order-of-magnitude slips, and snapshots must be refreshed on the CI
//     runner class (see BENCH_hotloop.json's note).
type perfSnapshot struct {
	Note       string               `json:"note"`
	Updated    string               `json:"updated"`
	Tolerance  perfTolerance        `json:"tolerance"`
	MaxAllocs  float64              `json:"max_allocs_engine_full_pass"`
	MinSpeedup float64              `json:"min_speedup_engine_vs_stateless"`
	Benchmarks map[string]perfEntry `json:"benchmarks"`
}

type perfTolerance struct {
	AllocsFrac float64 `json:"allocs_frac"`
	NsFrac     float64 `json:"ns_frac"`
	RatioFrac  float64 `json:"ratio_frac"`
}

type perfEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

const perfSnapshotPath = "BENCH_hotloop.json"

func TestPerfTrajectory(t *testing.T) {
	update := os.Getenv("GUOQ_PERF_UPDATE") != ""
	if os.Getenv("GUOQ_PERF_CHECK") == "" && !update {
		t.Skip("perf gate is opt-in: set GUOQ_PERF_CHECK=1 (gate) or GUOQ_PERF_UPDATE=1 (refresh)")
	}
	run := func(f func(*testing.B)) perfEntry {
		r := testing.Benchmark(f)
		return perfEntry{NsPerOp: float64(r.NsPerOp()), AllocsPerOp: float64(r.AllocsPerOp())}
	}
	got := map[string]perfEntry{
		"EngineFullPass": run(BenchmarkEngineFullPass),
		"RuleFullPass":   run(BenchmarkRuleFullPass),
	}
	for name, e := range got {
		t.Logf("%-16s %10.0f ns/op %6.0f allocs/op", name, e.NsPerOp, e.AllocsPerOp)
	}

	if update {
		snap := perfSnapshot{
			Note: "Hot-loop perf snapshot for the CI perf gate (TestPerfTrajectory). " +
				"Refresh on the CI runner class with GUOQ_PERF_UPDATE=1; ns/op from " +
				"other machines makes the loose ns gate meaningless.",
			Updated: time.Now().UTC().Format("2006-01-02"),
			Tolerance: perfTolerance{
				AllocsFrac: 0.10, // allocs/op are near-deterministic
				NsFrac:     0.60, // shared-runner noise; catches big slips only
				RatioFrac:  0.25, // machine-independent speedup ratio
			},
			MaxAllocs:  84,  // acceptance floor for the zero-allocation hot loop work
			MinSpeedup: 1.2, // engine must beat the stateless pipeline by ≥ this
			Benchmarks: got,
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(perfSnapshotPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", perfSnapshotPath)
		return
	}

	data, err := os.ReadFile(perfSnapshotPath)
	if err != nil {
		t.Fatalf("no perf snapshot (run with GUOQ_PERF_UPDATE=1 to create): %v", err)
	}
	var snap perfSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("corrupt %s: %v", perfSnapshotPath, err)
	}

	var failures []string
	for name, want := range snap.Benchmarks {
		have, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: pinned in snapshot but no longer measured", name))
			continue
		}
		if limit := want.AllocsPerOp*(1+snap.Tolerance.AllocsFrac) + 0.5; have.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op, snapshot %.0f (+%d%% tolerance = %.1f)",
				name, have.AllocsPerOp, want.AllocsPerOp, int(snap.Tolerance.AllocsFrac*100), limit))
		}
		if limit := want.NsPerOp * (1 + snap.Tolerance.NsFrac); have.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op, snapshot %.0f (+%d%% tolerance = %.0f)",
				name, have.NsPerOp, want.NsPerOp, int(snap.Tolerance.NsFrac*100), limit))
		}
	}
	if have := got["EngineFullPass"].AllocsPerOp; snap.MaxAllocs > 0 && have > snap.MaxAllocs {
		failures = append(failures, fmt.Sprintf("EngineFullPass: %.0f allocs/op breaches the hard ceiling %.0f", have, snap.MaxAllocs))
	}
	ratio := got["RuleFullPass"].NsPerOp / got["EngineFullPass"].NsPerOp
	t.Logf("engine vs stateless speedup: %.2fx", ratio)
	if se, sr := snap.Benchmarks["EngineFullPass"], snap.Benchmarks["RuleFullPass"]; se.NsPerOp > 0 {
		snapRatio := sr.NsPerOp / se.NsPerOp
		if floor := snapRatio * (1 - snap.Tolerance.RatioFrac); ratio < floor {
			failures = append(failures, fmt.Sprintf("speedup ratio %.2fx below snapshot %.2fx - %d%% = %.2fx",
				ratio, snapRatio, int(snap.Tolerance.RatioFrac*100), floor))
		}
	}
	if snap.MinSpeedup > 0 && ratio < snap.MinSpeedup {
		failures = append(failures, fmt.Sprintf("speedup ratio %.2fx below the hard floor %.2fx", ratio, snap.MinSpeedup))
	}
	for _, f := range failures {
		t.Error(f)
	}
}

const hugeSnapshotPath = "BENCH_huge.json"

// Reduction-quality tolerances for the huge-circuit gate. Gate counts after a
// time-budgeted anytime search are machine-dependent (a slower runner does
// fewer iterations), so the gate is on the achieved reduction FRACTION
// relative to the snapshot's, not on absolute gate counts: a runner must
// deliver at least these shares of the pinned reduction or something
// structural broke (a rule regression, a scheduler bug, a broken window
// search) rather than the machine being slow.
const (
	hugeTotalReductionShare = 0.75 // of snapshot's total-gate reduction
	huge2QReductionShare    = 0.50 // of snapshot's two-qubit reduction
)

// TestPerfTrajectoryHuge gates the huge-circuit path (guoq, portfolio and
// partition-parallel on a generated 10k-gate input) the same way
// TestPerfTrajectory gates the hot loop: opt-in via GUOQ_PERF_CHECK,
// snapshot refresh via GUOQ_PERF_UPDATE, pinned input in BENCH_huge.json.
// The -run TestPerfTrajectory regex CI uses matches this test too, so both
// gates share one serial CI step.
func TestPerfTrajectoryHuge(t *testing.T) {
	update := os.Getenv("GUOQ_PERF_UPDATE") != ""
	if os.Getenv("GUOQ_PERF_CHECK") == "" && !update {
		t.Skip("perf gate is opt-in: set GUOQ_PERF_CHECK=1 (gate) or GUOQ_PERF_UPDATE=1 (refresh)")
	}
	data, err := os.ReadFile(hugeSnapshotPath)
	if err != nil {
		t.Fatalf("no huge-circuit snapshot (guoqbench -exp huge -json writes one): %v", err)
	}
	var snap experiments.HugeReport
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("corrupt %s: %v", hugeSnapshotPath, err)
	}

	// Re-run the pinned experiment: same seed, same circuit size, same
	// per-tool budget.
	rep, err := experiments.Huge(experiments.Config{
		Budget:  time.Duration(snap.BudgetMS) * time.Millisecond,
		Seed:    snap.Seed,
		Epsilon: 1e-8,
		Out:     io.Discard,
	}, snap.Workers, snap.Qubits, snap.InputGates, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputGates != snap.InputGates || rep.InputTwoQubit != snap.InputTwoQubit {
		t.Fatalf("generated input drifted: %d gates / %d 2q, snapshot %d / %d (seeded generation must be stable)",
			rep.InputGates, rep.InputTwoQubit, snap.InputGates, snap.InputTwoQubit)
	}

	rows := func(r *experiments.HugeReport) map[string]experiments.HugeRow {
		m := map[string]experiments.HugeRow{}
		for _, row := range r.Rows {
			m[row.Tool] = row
		}
		return m
	}
	have, want := rows(rep), rows(&snap)
	for tool, w := range want {
		h, ok := have[tool]
		if !ok {
			t.Errorf("%s: pinned in snapshot but no longer measured", tool)
			continue
		}
		t.Logf("%-18s %5d -> %5d gates (%5d -> %5d 2q), snapshot reached %d gates", tool, rep.InputGates, h.Gates, rep.InputTwoQubit, h.TwoQubit, w.Gates)
		if h.Error > 1e-8 {
			t.Errorf("%s: error %g exceeds the ε budget", tool, h.Error)
		}
		snapTotal := rep.InputGates - w.Gates
		if got, floor := rep.InputGates-h.Gates, int(float64(snapTotal)*hugeTotalReductionShare); got < floor {
			t.Errorf("%s: removed %d gates, below %d (%d%% of snapshot's %d)",
				tool, got, floor, int(hugeTotalReductionShare*100), snapTotal)
		}
		snap2Q := rep.InputTwoQubit - w.TwoQubit
		if got, floor := rep.InputTwoQubit-h.TwoQubit, int(float64(snap2Q)*huge2QReductionShare); got < floor {
			t.Errorf("%s: removed %d two-qubit gates, below %d (%d%% of snapshot's %d)",
				tool, got, floor, int(huge2QReductionShare*100), snap2Q)
		}
	}

	if update {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hugeSnapshotPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", hugeSnapshotPath)
	}
}
