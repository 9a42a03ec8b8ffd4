package guoq

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/experiments"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
)

// TestPerfTrajectory is the CI hot-loop gate. It re-measures the search
// loop's real traffic — a seeded, MaxIters-bounded GUOQ-REWRITE run on a
// fixed slice of the ibm-eagle suite — plus the stateless RuleFullPass
// microbenchmark, and fails if either regresses past the pinned snapshot in
// BENCH_hotloop.json. It is opt-in — timings are meaningless under
// `go test ./...` parallelism — and runs as its own serial CI step:
//
//	GUOQ_PERF_CHECK=1  go test -run TestPerfTrajectory -count=1 .   # gate
//	GUOQ_PERF_UPDATE=1 go test -run TestPerfTrajectory -count=1 .   # refresh snapshot
//
// Gates, strictest first:
//
//   - the loop's iteration count and output fingerprint (a hash of the
//     outputs' QASM) must equal the snapshot. The run is seeded and bounded
//     by iterations, so a difference means the search itself changed, and
//     the pin must be refreshed on purpose;
//   - match calls and full cache resets are deterministic counts of the
//     engine's work; each may rise at most CountFrac;
//   - allocations per loop iteration and per RuleFullPass op are
//     near-deterministic and may rise at most AllocsFrac;
//   - ns per iteration and per op are machine-dependent, so they are gated
//     loosely (NsFrac) to catch order-of-magnitude slips, and snapshots must
//     be refreshed on the CI runner class (see BENCH_hotloop.json's note).
//
// Cache skips, skipped rule and τ0 passes, rollbacks and commits are logged
// for the record, not gated.
type perfSnapshot struct {
	Note       string               `json:"note"`
	Updated    string               `json:"updated"`
	Tolerance  perfTolerance        `json:"tolerance"`
	Loop       loopPerf             `json:"rewrite_loop"`
	Benchmarks map[string]perfEntry `json:"benchmarks"`
}

type perfTolerance struct {
	CountFrac  float64 `json:"count_frac"`
	AllocsFrac float64 `json:"allocs_frac"`
	NsFrac     float64 `json:"ns_frac"`
}

type perfEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// loopPerf is one measurement of the gate workload. The engine counts come
// from the run's metrics registry, summed over all circuits.
type loopPerf struct {
	Circuits      int     `json:"circuits"`
	Iters         int     `json:"iters"`
	Fingerprint   string  `json:"fingerprint"`
	AllocsPerIter float64 `json:"allocs_per_iter"`
	NsPerIter     float64 `json:"ns_per_iter"`
	MatchCalls    float64 `json:"match_calls"`
	CacheSkips    float64 `json:"cache_skips"`
	RuleSkips     float64 `json:"rule_skips"`
	PassSkips     float64 `json:"pass_skips"`
	Resets        float64 `json:"resets"`
	Rollbacks     float64 `json:"rollbacks"`
	Commits       float64 `json:"commits"`
}

const perfSnapshotPath = "BENCH_hotloop.json"

// The gate workload: GUOQ-REWRITE with seed 1 and no wall-clock budget on
// every perfLoopStride-th ibm-eagle suite circuit, perfLoopIters
// iterations each.
const (
	perfLoopStride = 8
	perfLoopIters  = 700
)

func measureRewriteLoop(t *testing.T) loopPerf {
	t.Helper()
	suite, err := benchmarks.SuiteFor(gateset.IBMEagle)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := baselines.NewGUOQVariant("guoq-rewrite", baselines.ModeRewrite, 1e-8)
	g.MaxIters = perfLoopIters
	g.Metrics = opt.NewMetrics(reg)
	cost := opt.TwoQubitCost()

	var lp loopPerf
	var outs []*circuit.Circuit
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	start := time.Now()
	for i := 0; i < len(suite); i += perfLoopStride {
		out, res := g.OptimizeStats(suite[i].Circuit, gateset.IBMEagle, cost, 0, 1)
		outs = append(outs, out)
		lp.Iters += res.Iters
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem)
	lp.Circuits = len(outs)
	if lp.Iters == 0 {
		t.Fatal("gate workload ran no iterations")
	}
	lp.AllocsPerIter = float64(mem.Mallocs-mallocs) / float64(lp.Iters)
	lp.NsPerIter = float64(elapsed.Nanoseconds()) / float64(lp.Iters)

	h := fnv.New64a()
	for _, out := range outs {
		io.WriteString(h, out.WriteQASM())
	}
	lp.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
	snap := reg.Snapshot()
	lp.MatchCalls = snap["guoq_engine_cache_misses_total"]
	lp.CacheSkips = snap["guoq_engine_cache_hits_total"]
	lp.RuleSkips = snap["guoq_engine_rule_skips_total"]
	lp.PassSkips = snap["guoq_engine_pass_skips_total"]
	lp.Resets = snap["guoq_engine_resets_total"]
	lp.Rollbacks = snap["guoq_engine_rollbacks_total"]
	lp.Commits = snap["guoq_engine_commits_total"]
	return lp
}

func TestPerfTrajectory(t *testing.T) {
	update := os.Getenv("GUOQ_PERF_UPDATE") != ""
	if os.Getenv("GUOQ_PERF_CHECK") == "" && !update {
		t.Skip("perf gate is opt-in: set GUOQ_PERF_CHECK=1 (gate) or GUOQ_PERF_UPDATE=1 (refresh)")
	}
	loop := measureRewriteLoop(t)
	t.Logf("rewrite loop: %d circuits, %d iters, fingerprint %s, %.1f allocs/iter, %.0f ns/iter",
		loop.Circuits, loop.Iters, loop.Fingerprint, loop.AllocsPerIter, loop.NsPerIter)
	t.Logf("rewrite loop engine: %.0f match calls, %.0f cache skips, %.0f rule and %.0f τ0 passes skipped, %.0f resets, %.0f rollbacks, %.0f commits",
		loop.MatchCalls, loop.CacheSkips, loop.RuleSkips, loop.PassSkips, loop.Resets, loop.Rollbacks, loop.Commits)
	r := testing.Benchmark(BenchmarkRuleFullPass)
	got := map[string]perfEntry{
		"RuleFullPass": {NsPerOp: float64(r.NsPerOp()), AllocsPerOp: float64(r.AllocsPerOp())},
	}
	for name, e := range got {
		t.Logf("%-16s %10.0f ns/op %6.0f allocs/op", name, e.NsPerOp, e.AllocsPerOp)
	}

	if update {
		snap := perfSnapshot{
			Note: "Hot-loop perf snapshot for the CI perf gate (TestPerfTrajectory). " +
				"Refresh on the CI runner class with GUOQ_PERF_UPDATE=1; ns from " +
				"other machines makes the loose ns gate meaningless.",
			Updated: time.Now().UTC().Format("2006-01-02"),
			Tolerance: perfTolerance{
				CountFrac:  0.01, // match calls and resets are deterministic
				AllocsFrac: 0.10, // allocations are near-deterministic
				NsFrac:     0.60, // shared-runner noise; catches big slips only
			},
			Loop:       loop,
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
	tol := snap.Tolerance

	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	want := snap.Loop
	if loop.Circuits != want.Circuits || loop.Iters != want.Iters || loop.Fingerprint != want.Fingerprint {
		fail("rewrite loop: %d circuits, %d iters, fingerprint %s; snapshot %d, %d, %s: the seeded search changed, "+
			"so refresh the pin on purpose (GUOQ_PERF_UPDATE=1)",
			loop.Circuits, loop.Iters, loop.Fingerprint, want.Circuits, want.Iters, want.Fingerprint)
	}
	for _, c := range []struct {
		what       string
		have, want float64
	}{
		{"match calls", loop.MatchCalls, want.MatchCalls},
		{"resets", loop.Resets, want.Resets},
	} {
		if limit := c.want * (1 + tol.CountFrac); c.have > limit {
			fail("rewrite loop: %.0f %s, snapshot %.0f (+%g%% tolerance = %.0f)",
				c.have, c.what, c.want, tol.CountFrac*100, limit)
		}
	}
	if limit := want.AllocsPerIter * (1 + tol.AllocsFrac); loop.AllocsPerIter > limit {
		fail("rewrite loop: %.1f allocs/iter, snapshot %.1f (+%g%% tolerance = %.1f)",
			loop.AllocsPerIter, want.AllocsPerIter, tol.AllocsFrac*100, limit)
	}
	if limit := want.NsPerIter * (1 + tol.NsFrac); loop.NsPerIter > limit {
		fail("rewrite loop: %.0f ns/iter, snapshot %.0f (+%g%% tolerance = %.0f)",
			loop.NsPerIter, want.NsPerIter, tol.NsFrac*100, limit)
	}
	for name, w := range snap.Benchmarks {
		have, ok := got[name]
		if !ok {
			fail("%s: pinned in snapshot but no longer measured", name)
			continue
		}
		if limit := w.AllocsPerOp*(1+tol.AllocsFrac) + 0.5; have.AllocsPerOp > limit {
			fail("%s: %.0f allocs/op, snapshot %.0f (+%g%% tolerance = %.1f)",
				name, have.AllocsPerOp, w.AllocsPerOp, tol.AllocsFrac*100, limit)
		}
		if limit := w.NsPerOp * (1 + tol.NsFrac); have.NsPerOp > limit {
			fail("%s: %.0f ns/op, snapshot %.0f (+%g%% tolerance = %.0f)",
				name, have.NsPerOp, w.NsPerOp, tol.NsFrac*100, limit)
		}
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
