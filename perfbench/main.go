package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/verify"
)

// workloads, in the order "all" runs them.
var workloads = []string{"nisq-guoq", "suite-rewrite", "guoqd-rw"}

// metricSpec is one reported metric's name and unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
	{"twoq_ratio", "ratio"}, {"gate_ratio", "ratio"}, {"t_ratio", "ratio"},
	{"ops_per_s", "1/s"},
}

// latencies are guoqd-rw's client-observed request latencies. The
// optimizer workloads have no requests, so they are printed for guoqd-rw
// only and are not part of the result line.
var latencies = []metricSpec{
	{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run. Self times are shares of the
// traced searches' wall time (optimizer) or of the client-observed request
// time (guoqd); the seconds are printed as notes. A layer a workload does
// not exercise reports 0.
var perLayer = []metricSpec{
	{"rewrite.rules_calls", "count"}, {"rewrite.rules_applied_ratio", "ratio"}, {"rewrite.rules_share", "ratio"},
	{"rewrite.cleanup_calls", "count"}, {"rewrite.cleanup_applied_ratio", "ratio"}, {"rewrite.cleanup_share", "ratio"},
	{"rewrite.fuse1q_calls", "count"}, {"rewrite.fuse1q_applied_ratio", "ratio"}, {"rewrite.fuse1q_share", "ratio"},
	{"rewrite.engine_cache_hit_ratio", "ratio"}, {"rewrite.engine_positive_hits", "count"},
	{"rewrite.engine_splices", "count"}, {"rewrite.engine_resets", "count"},
	{"phasepoly.fold_calls", "count"}, {"phasepoly.fold_applied_ratio", "ratio"}, {"phasepoly.fold_share", "ratio"},
	{"opt.iters", "count"}, {"opt.accept_ratio", "ratio"}, {"opt.cost_share", "ratio"},
	{"opt.allocs_per_iter", "allocs/iter"}, {"opt.loop_share", "ratio"},
	{"opt.resynth_calls", "count"}, {"opt.resynth_accept_ratio", "ratio"}, {"opt.resynth_self_share", "ratio"},
	{"synth.numeric_2q_calls", "count"}, {"synth.numeric_2q_ok_ratio", "ratio"}, {"synth.numeric_2q_share", "ratio"},
	{"synth.numeric_3q_calls", "count"}, {"synth.numeric_3q_ok_ratio", "ratio"}, {"synth.numeric_3q_share", "ratio"},
	{"synth.numeric_deadline_hits", "count"},
	{"circuit.parse_share", "ratio"}, {"gateset.translate_share", "ratio"},
	{"dist.read_handler_share", "ratio"}, {"circuit.canonicalize_share", "ratio"}, {"store.cache_hit_ratio", "ratio"},
	{"dist.write_handler_share", "ratio"}, {"store.wal_bytes_per_write", "B"}, {"dist.publishes", "count"},
	{"dist.client_share", "ratio"},
	{"trace.overhead_ratio", "ratio"}, {"trace.layer_coverage_ratio", "ratio"},
}

// verifyMaxQubits is the widest output the equivalence check simulates;
// wider outputs get every other check.
const verifyMaxQubits = 12

// childTimeout bounds one workload process, so a hung run fails instead
// of outliving the benchmark's time limit.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: nisq-guoq, suite-rewrite, guoqd-rw or all")
	seed := fs.Int64("seed", 1, "workload seed: picks the circuit samples, search seeds and request mix")
	seconds := fs.Int("seconds", 20, "nominal run length; scales the fixed work, never bounds it")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	inject := fs.Bool("inject-fault", false, "drop one gate from one output before checking it, to show the checks fire")
	child := fs.Bool("child", false, "run one workload from a plan on stdin (used by the benchmark itself)")
	calib := fs.Bool("calibrate", false, "print calibration times as JSON (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calib {
		if err := runCalibration(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench calibration:", err)
			return 1
		}
		return 0
	}
	if *child {
		if err := runChild(os.Stdin, os.Stdout, *inject); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	dir, err := filepath.Abs(*workDir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ticks0, haveTicks := readCPUTicks()
	var results []*result
	for _, w := range names {
		res, err := measure(w, *seed, *seconds, *trace == 1, *inject, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		results = append(results, res)
	}
	steal := "n/a"
	if ticks1, ok := readCPUTicks(); ok && haveTicks {
		steal = fmt.Sprintf("%.3f", stealShare(ticks0, ticks1))
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s host_steal_share=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	traced := *trace == 1
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	final := map[string]any{"correct": true, "attempted": 0, "failed": 0}
	metrics := map[string]map[string]any{}
	attempted, failed := 0, 0
	for _, res := range results {
		res.print(specs, traced)
		attempted += res.attempted
		failed += res.failed
		for _, m := range specs {
			name := m.name
			if len(results) > 1 {
				name = res.workload + "/" + m.name
			}
			metrics[name] = map[string]any{"value": res.metrics[m.name], "unit": m.unit}
		}
	}
	final["correct"], final["attempted"], final["failed"], final["metrics"] = failed == 0, attempted, failed, metrics
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runChild is the workload process: it reads a plan, runs it and writes
// its report.
func runChild(in io.Reader, out io.Writer, inject bool) error {
	var p plan
	if err := json.NewDecoder(in).Decode(&p); err != nil {
		return err
	}
	var r *report
	var err error
	if p.Workload == "guoqd-rw" {
		r, err = runGuoqd(&p, inject)
	} else {
		r, err = runOptimizer(&p)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(r)
}

// runSelf re-executes this binary with args, feeds it stdin and returns
// its standard output.
func runSelf(stdin []byte, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(stdin), &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", args[0], err)
	}
	return out.Bytes(), nil
}

// spawn runs one workload process on p and returns its report.
func spawn(p *plan, inject bool) (*report, error) {
	in, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	out, err := runSelf(in, "-child", fmt.Sprintf("-inject-fault=%t", inject))
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("workload report: %w", err)
	}
	return &r, nil
}

// result is one workload's checked outcome.
type result struct {
	workload          string
	plan              *plan
	metrics           map[string]float64
	attempted, failed int
	failures          []string
	notes             []string
	samples           map[string]int
}

// measure runs one workload (and, when traced, its traced twin) and
// checks every output.
func measure(workload string, seed int64, seconds int, traced, inject bool, dir string) (*result, error) {
	p, err := makePlan(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	p.WorkDir = dir
	rep, err := spawn(p, inject)
	if err != nil {
		return nil, err
	}
	if len(rep.CalibS) != len(rep.WallS)+2 {
		return nil, fmt.Errorf("workload report has %d calibrations for %d rounds", len(rep.CalibS), len(rep.WallS))
	}
	res := &result{workload: workload, plan: p, metrics: map[string]float64{}, samples: map[string]int{}}
	res.evaluate(rep, inject)
	if !traced {
		return res, nil
	}
	p.Trace = true
	trep, err := spawn(p, false)
	if err != nil {
		return nil, err
	}
	res.fold(trep.Attempted, trep.Failures)
	for _, m := range perLayer {
		res.metrics[m.name] = trep.Layers[m.name]
	}
	twall, tcpu := trep.work(trep.WallS, trep.CPUS)
	_, cpu := rep.work(rep.WallS, rep.CPUS)
	res.metrics["trace.overhead_ratio"] = tcpu/cpu - 1
	res.notes = append(res.notes, fmt.Sprintf("tracing overhead: traced cpu_s=%.4f, untraced cpu_s=%.4f, traced wall_s=%.4f", tcpu, cpu, twall))
	var times []string
	for name, v := range trep.Layers {
		if (strings.HasSuffix(name, "_s") || strings.HasSuffix(name, "_ms")) && v != 0 {
			times = append(times, fmt.Sprintf("%s=%.6g", name, v))
		}
	}
	sort.Strings(times)
	res.notes = append(res.notes, "layer times: "+strings.Join(times, " "))
	if workload != "guoqd-rw" {
		res.notes = append(res.notes, fmt.Sprintf("exchange publishes per circuit at 64-iteration exchange points: %.3f",
			trep.Layers["opt.exchange_publishes_per_circuit"]))
		distinct := distinctHashes(append(append([]string{}, rep.Hashes...), trep.Hashes...))
		res.notes = append(res.notes, fmt.Sprintf("traced output hash %s, %d distinct hashes over traced and untraced rounds", trep.Hashes[0], distinct))
		if workload == "suite-rewrite" {
			res.attempted++
			if distinct != 1 {
				res.fail("traced run changed the seeded output")
			}
		}
	}
	return res, nil
}

func (r *result) fail(msg string) {
	r.failed++
	r.failures = append(r.failures, msg)
}

// fold adds the checks a workload process ran itself.
func (r *result) fold(attempted int, failures []string) {
	r.attempted += attempted
	for _, f := range failures {
		r.fail(f)
	}
}

// evaluate checks an untraced report's outputs and derives the
// end-to-end metrics.
func (r *result) evaluate(rep *report, inject bool) {
	r.fold(rep.Attempted, rep.Failures)
	m := r.metrics
	// Timings are reported in reference seconds: scaled by how much
	// slower or faster the calibration ran than on the reference VM. Each
	// round or part of the work is scaled by the two calibrations around
	// it, which follow a drifting host more closely than the run's median
	// does. The
	// set-up is short, so the noise of two calibrations would outweigh the
	// drift over it; it is scaled by the median of all of them. A search
	// that waits on wall-clock deadlines is scaled only in part.
	c := rep.CalibS
	setupScale := calibrationRef / median(c)
	var walls, cpus, scales []float64
	for i := range rep.WallS {
		s := 2 * calibrationRef / (c[i+1] + c[i+2])
		if r.plan.DeadlineBound {
			s = math.Pow(s, deadlineElasticity)
		}
		walls, cpus, scales = append(walls, rep.WallS[i]*s), append(cpus, rep.CPUS[i]*s), append(scales, s)
	}
	setup := median(rep.SetupS)
	wall, cpu := rep.work(rep.WallS, rep.CPUS)
	m["setup_s"] = setup * setupScale
	m["wall_s"], m["cpu_s"] = rep.work(walls, cpus)
	m["peak_rss_mb"] = rep.PeakRSSMB
	m["ops_per_s"] = float64(rep.Ops) / m["wall_s"]
	r.notes = append(r.notes, fmt.Sprintf("measured seconds: setup_s=%.6g wall_s=%.6g cpu_s=%.6g; calibrations %.4f s, set-up scale %.4f, work scales %.4f",
		setup, wall, cpu, c, setupScale, scales))
	r.samples["setup_s"] = len(rep.SetupS)
	r.samples["wall_s"], r.samples["cpu_s"] = len(rep.WallS), len(rep.CPUS)
	var before, after [3]int
	if r.workload == "guoqd-rw" {
		before, after = rep.Submitted, rep.Served
		m["read_p50_ms"], m["read_p99_ms"] = quantile(rep.ReadMS, 0.5), quantile(rep.ReadMS, 0.99)
		m["write_p50_ms"], m["write_p99_ms"] = quantile(rep.WriteMS, 0.5), quantile(rep.WriteMS, 0.99)
		r.samples["read_p50_ms"], r.samples["read_p99_ms"] = len(rep.ReadMS), len(rep.ReadMS)
		r.samples["write_p50_ms"], r.samples["write_p99_ms"] = len(rep.WriteMS), len(rep.WriteMS)
		r.notes = append(r.notes, fmt.Sprintf("each reopen replays a %d-byte snapshot and a %d-byte WAL", rep.ReplayBytes[0], rep.ReplayBytes[1]))
	} else {
		before, after = r.checkOutputs(rep, inject)
		r.attempted++
		if r.workload == "suite-rewrite" && distinctHashes(rep.Hashes) != 1 {
			r.fail(fmt.Sprintf("rounds disagree on the seeded output: %v", rep.Hashes))
		}
		r.notes = append(r.notes, fmt.Sprintf("output hash %s over %d round(s), %d distinct", rep.Hashes[0], len(rep.Hashes), distinctHashes(rep.Hashes)))
	}
	for i, name := range []string{"twoq_ratio", "gate_ratio", "t_ratio"} {
		m[name] = float64(after[i]) / math.Max(float64(before[i]), 1)
	}
}

// checkOutputs runs the output checks on the optimizer workloads and
// returns the summed two-qubit, total and T counts before and after. The T
// column covers the circuits optimized under the T objective, or every
// circuit's non-Clifford rotations when there are none.
func (r *result) checkOutputs(rep *report, inject bool) (before, after [3]int) {
	var ncAll [2]int
	injected := !inject
	for i, in := range r.plan.Circuits {
		r.attempted++
		gs, err := gateset.ByName(in.GateSet)
		if err != nil {
			r.fail(err.Error())
			continue
		}
		src, err := circuit.ParseQASM(in.QASM)
		if err == nil {
			src, err = gateset.Translate(src, gs)
		}
		if err != nil {
			r.fail(fmt.Sprintf("%s: input: %v", in.Name, err))
			continue
		}
		o := rep.Outputs[i]
		out, err := circuit.ParseQASM(o.QASM)
		if err != nil {
			r.fail(fmt.Sprintf("%s: output does not parse: %v", in.Name, err))
			continue
		}
		if !injected && out.NumQubits <= verifyMaxQubits && out.Len() > 0 {
			out.Gates = out.Gates[:out.Len()-1]
			injected = true
		}
		cost := costFor(in.Objective)
		var problems []string
		if !gs.IsNative(out) {
			problems = append(problems, "not native to "+gs.Name)
		}
		if cost(out) > cost(src)+1e-9 {
			problems = append(problems, fmt.Sprintf("cost %g worse than input %g", cost(out), cost(src)))
		}
		if o.Error < 0 || o.Error > epsilon {
			problems = append(problems, fmt.Sprintf("error bound %g outside [0, %g]", o.Error, epsilon))
		}
		if out.NumQubits != src.NumQubits {
			problems = append(problems, "qubit count changed")
		} else if src.NumQubits <= verifyMaxQubits {
			v, err := verify.Equivalent(src, out, verify.Options{Tolerance: 1e-6, Seed: int64(i)})
			if err != nil || !v.Equivalent {
				problems = append(problems, fmt.Sprintf("not equivalent to its input (overlap %.9f, %v)", v.WorstOverlap, err))
			}
		}
		if len(problems) > 0 {
			r.fail(in.Name + ": " + strings.Join(problems, "; "))
		}
		before[0] += src.TwoQubitCount()
		after[0] += out.TwoQubitCount()
		before[1] += src.Len()
		after[1] += out.Len()
		ncAll[0] += nonClifford(src)
		ncAll[1] += nonClifford(out)
		if in.Objective == "t" {
			before[2] += src.TCount()
			after[2] += out.TCount()
		}
	}
	if before[2] == 0 {
		before[2], after[2] = ncAll[0], ncAll[1]
	}
	return before, after
}

func distinctHashes(hs []string) int {
	seen := map[string]bool{}
	for _, h := range hs {
		seen[h] = true
	}
	return len(seen)
}

// print writes the workload's human-readable block: every metric by name
// with its unit and sample count, the checks, and the notes.
func (r *result) print(specs []metricSpec, traced bool) {
	p := r.plan
	switch {
	case p.Guoqd != nil:
		ops := 0
		for _, c := range p.Guoqd.Clients {
			ops += len(c.Ops)
		}
		fmt.Printf("workload %s: %d keys, %d clients, %d requests (3 reads per write), pad %d\n", r.workload, len(p.Guoqd.Keys), len(p.Guoqd.Clients), ops, p.Guoqd.Pad)
	default:
		fmt.Printf("workload %s: %d circuits x %d iterations, %d round(s)\n", r.workload, len(p.Circuits), p.Circuits[0].Iters, p.Rounds)
	}
	if r.workload == "guoqd-rw" && !traced {
		specs = append(append([]metricSpec{}, specs...), latencies...)
	}
	for _, m := range specs {
		n := ""
		if c, ok := r.samples[m.name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Printf("  %-32s %14.6g %s%s\n", m.name, r.metrics[m.name], m.unit, n)
	}
	fmt.Printf("  %-32s %14.6g %s  (%d of %d checks failed)\n", "fail_ratio", float64(r.failed)/math.Max(float64(r.attempted), 1), "ratio", r.failed, r.attempted)
	sort.Strings(r.failures)
	for _, f := range r.failures {
		fmt.Printf("  FAIL %s\n", f)
	}
	for _, n := range r.notes {
		fmt.Printf("  note %s\n", n)
	}
}
