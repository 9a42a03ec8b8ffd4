package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/guoq-dev/guoq"
	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
)

// report is what a workload process sends back to the parent.
type report struct {
	SetupS []float64 `json:"setup_s"`
	// WallS and CPUS hold one value per round of the fixed work, or per
	// part of it when Parts is set.
	WallS []float64 `json:"wall_s"`
	CPUS  []float64 `json:"cpu_s"`
	// Parts marks WallS and CPUS as consecutive parts of one run of the
	// work, to be summed, rather than repeats of it, to take the median of.
	Parts bool `json:"parts,omitempty"`
	// Ops counts the operations of one round: search iterations or
	// requests.
	Ops int `json:"ops"`
	// ReadMS and WriteMS are guoqd-rw's client-observed request latencies.
	ReadMS  []float64 `json:"read_ms,omitempty"`
	WriteMS []float64 `json:"write_ms,omitempty"`
	// Hashes fingerprints each round's output circuits.
	Hashes  []string `json:"hashes"`
	Outputs []output `json:"outputs,omitempty"`
	// Served and Submitted are the guoqd reads' gate counts (two-qubit,
	// total, non-Clifford), summed over replies and over requests.
	Served    [3]int `json:"served"`
	Submitted [3]int `json:"submitted"`
	// ReplayBytes are the sizes of the snapshot and the WAL guoqd-rw's
	// reopen replays.
	ReplayBytes [2]int `json:"replay_bytes"`
	// CalibS are the calibrations taken around the timed phases (see
	// calibratePhase): before the set-up, before the work, and after each
	// round or part.
	CalibS []float64 `json:"calib_s"`
	// PeakRSSMB is the largest resident set seen during the timed work.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Attempted and Failures are the checks this process ran itself.
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// work returns the wall and CPU seconds of the fixed work: the median
// round, or the sum of the parts.
func (r *report) work(wall, cpu []float64) (float64, float64) {
	if !r.Parts {
		return median(wall), median(cpu)
	}
	var w, c float64
	for i := range wall {
		w, c = w+wall[i], c+cpu[i]
	}
	return w, c
}

// output is one optimized circuit of the last round.
type output struct {
	QASM     string  `json:"qasm"`
	Error    float64 `json:"error"`
	Iters    int     `json:"iters"`
	Accepted int     `json:"accepted"`
}

func costFor(objective string) opt.Cost {
	if objective == "t" {
		return opt.TCost()
	}
	return opt.TwoQubitCost()
}

// runOptimizer runs nisq-guoq or suite-rewrite in this process.
func runOptimizer(p *plan) (*report, error) {
	r := &report{}
	gsets := make([]*gateset.GateSet, len(p.Circuits))
	var inputs []*circuit.Circuit
	var parseS, translateS []float64
	if err := calibratePhase(p, r); err != nil {
		return nil, err
	}
	// Set-up is timed Setups times after one untimed pass, each from a
	// freshly collected heap, so the median sees warm code and the same
	// collector state every time.
	for s := -1; s < p.Setups; s++ {
		runtime.GC()
		cs := make([]*circuit.Circuit, len(p.Circuits))
		var parse, translate time.Duration
		start := time.Now()
		for i, in := range p.Circuits {
			t0 := time.Now()
			c, err := guoq.ParseQASM(in.QASM)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
			t1 := time.Now()
			if cs[i], err = guoq.Translate(c, in.GateSet); err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
			parse += t1.Sub(t0)
			translate += time.Since(t1)
		}
		if s >= 0 {
			r.SetupS = append(r.SetupS, time.Since(start).Seconds())
			parseS = append(parseS, parse.Seconds())
			translateS = append(translateS, translate.Seconds())
		}
		inputs = cs
	}
	for i, in := range p.Circuits {
		gs, err := gateset.ByName(in.GateSet)
		if err != nil {
			return nil, err
		}
		gsets[i] = gs
		r.Ops += in.Iters
	}

	var tr *tracer
	var reg *obs.Registry
	if p.Trace {
		tr, reg = newTracer(), obs.NewRegistry()
		r.Attempted++
		if bad := checkRegistry(newTracer()); len(bad) > 0 {
			r.Failures = append(r.Failures, "registry self-check: "+strings.Join(bad, "; "))
		}
	}
	m := opt.NewMetrics(reg)

	if err := calibratePhase(p, r); err != nil {
		return nil, err
	}
	var mallocs uint64
	var mem runtime.MemStats
	debug.FreeOSMemory()
	rss := startRSSSampler()
	var outs []*circuit.Circuit
	var stats []output
	for round := 0; round < p.Rounds; round++ {
		work := make([]*circuit.Circuit, len(inputs))
		for i, c := range inputs {
			work[i] = c.Clone()
		}
		outs, stats = make([]*circuit.Circuit, len(inputs)), make([]output, len(inputs))
		runtime.ReadMemStats(&mem)
		mallocs -= mem.Mallocs
		cpu0, t0 := cpuSeconds(), time.Now()
		for i, c := range work {
			var err error
			outs[i], stats[i], err = optimizeOne(p.Workload, p.Circuits[i], gsets[i], c, tr, m)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Circuits[i].Name, err)
			}
		}
		r.WallS = append(r.WallS, time.Since(t0).Seconds())
		r.CPUS = append(r.CPUS, cpuSeconds()-cpu0)
		if err := calibratePhase(p, r); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem)
		mallocs += mem.Mallocs
		qasm := make([]string, len(outs))
		for i, c := range outs {
			qasm[i] = c.WriteQASM()
		}
		r.Hashes = append(r.Hashes, hashStrings(qasm))
	}
	r.PeakRSSMB = rss.stop()

	for i, c := range outs {
		stats[i].QASM = c.WriteQASM()
	}
	r.Outputs = stats

	if tr != nil {
		iters := 0
		for _, s := range stats {
			iters += s.Iters
		}
		iters *= p.Rounds
		r.Layers = optimizerLayers(tr, reg, rulesOf(tr))
		r.Layers["opt.allocs_per_iter"] = float64(mallocs) / float64(max(iters, 1))
		r.Layers["opt.exchange_publishes_per_circuit"] = tr.publishesPerCircuit()
		parse, translate := median(parseS), median(translateS)
		r.Layers["circuit.parse_s"], r.Layers["gateset.translate_s"] = parse, translate
		r.Layers["circuit.parse_share"] = parse / (parse + translate)
		r.Layers["gateset.translate_share"] = translate / (parse + translate)
		if err := tr.dump(fmt.Sprintf("%s/%s.spans.tsv", p.WorkDir, p.Workload)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// optimizeOne runs one circuit's fixed-length search. The untraced
// nisq-guoq path is the public library entry point; every other path,
// and every traced one, is the layer under it, baselines.GUOQ, configured
// the way guoq.Start configures it.
func optimizeOne(workload string, in circuitInput, gs *gateset.GateSet, c *circuit.Circuit, tr *tracer, m *opt.Metrics) (*circuit.Circuit, output, error) {
	if workload == "nisq-guoq" && tr == nil {
		s, err := guoq.Start(context.Background(), c, guoq.Options{GateSet: in.GateSet, MaxIters: in.Iters, Seed: in.Seed})
		if err != nil {
			return nil, output{}, err
		}
		out, res, err := s.Wait()
		if err != nil {
			return nil, output{}, err
		}
		return out, output{Error: res.Error, Iters: res.Iters, Accepted: res.Accepted}, nil
	}
	var g *baselines.GUOQ
	if workload == "nisq-guoq" {
		g = baselines.NewGUOQ(epsilon)
		g.Async = false
	} else {
		g = baselines.NewGUOQVariant("guoq-rewrite", baselines.ModeRewrite, epsilon)
	}
	g.MaxIters = in.Iters
	g.Metrics = m
	cost := costFor(in.Objective)
	var id int32
	if tr != nil {
		g.Registry = tr.tracedRegistry()
		cost = tr.tracedCost(cost)
		x := &exchangeCounter{}
		g.Exchanger = x
		tr.exchanges = append(tr.exchanges, x)
		id = tr.begin(spanCircuit)
	}
	out, st := g.OptimizeStats(c, gs, cost, 0, in.Seed)
	if tr != nil {
		tr.end(id, true)
		tr.results = append(tr.results, st)
	}
	return out, output{Error: st.BestError, Iters: st.Iters, Accepted: st.Accepted}, nil
}

// rulesOf sums the per-transformation attribution of every traced search.
func rulesOf(tr *tracer) map[string]opt.RuleStats {
	out := map[string]opt.RuleStats{}
	for _, res := range tr.results {
		for name, s := range res.Rules {
			o := out[name]
			o.Attempts += s.Attempts
			o.Accepted += s.Accepted
			o.Rejected += s.Rejected
			out[name] = o
		}
	}
	return out
}

// optimizerLayers turns the spans, the engine counters and the
// attribution tables into the per-layer metrics.
func optimizerLayers(tr *tracer, reg *obs.Registry, rules map[string]opt.RuleStats) map[string]float64 {
	lt := tr.totals()
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	// Self times are reported in seconds and as shares of the traced
	// searches' wall time.
	searched := lt.total[spanCircuit].Seconds()
	l := map[string]float64{}
	self := func(name string, k spanKind) {
		l[name+"_s"] = lt.own[k].Seconds()
		l[name+"_share"] = 0
		if searched > 0 {
			l[name+"_share"] = lt.own[k].Seconds() / searched
		}
	}
	layer := func(prefix string, k spanKind) {
		l[prefix+"_calls"] = float64(lt.calls[k])
		l[prefix+"_applied_ratio"] = ratio(lt.ok[k], lt.calls[k])
		self(prefix, k)
	}
	layer("rewrite.rules", spanRules)
	layer("rewrite.cleanup", spanCleanup)
	layer("rewrite.fuse1q", spanFuse1Q)
	layer("phasepoly.fold", spanPhaseFold)
	for _, k := range []spanKind{spanNumeric2Q, spanNumeric3Q} {
		prefix := "synth." + spanNames[k]
		l[prefix+"_calls"] = float64(lt.calls[k])
		l[prefix+"_ok_ratio"] = ratio(lt.ok[k], lt.calls[k])
		self(prefix, k)
	}
	l["synth.numeric_deadline_hits"] = float64(tr.deadlineHits())

	snap := reg.Snapshot()
	hits, misses := snap["guoq_engine_cache_hits_total"], snap["guoq_engine_cache_misses_total"]
	l["rewrite.engine_cache_hit_ratio"] = 0
	if hits+misses > 0 {
		l["rewrite.engine_cache_hit_ratio"] = hits / (hits + misses)
	}
	l["rewrite.engine_positive_hits"] = snap["guoq_engine_positive_hits_total"]
	l["rewrite.engine_splices"] = snap["guoq_engine_splices_total"]
	l["rewrite.engine_resets"] = snap["guoq_engine_resets_total"]

	iters, accepted := 0, 0
	for _, res := range tr.results {
		iters += res.Iters
		accepted += res.Accepted
	}
	l["opt.iters"] = float64(iters)
	l["opt.accept_ratio"] = ratio(accepted, iters)
	self("opt.cost", spanCost)
	self("opt.loop", spanCircuit)
	resynth := opt.RuleStats{}
	for name, s := range rules {
		if strings.HasPrefix(name, "resynth:") {
			resynth.Attempts += s.Attempts
			resynth.Accepted += s.Accepted
		}
	}
	l["opt.resynth_calls"] = float64(resynth.Attempts)
	l["opt.resynth_accept_ratio"] = ratio(resynth.Accepted, resynth.Attempts)
	self("opt.resynth_self", spanResynth)

	// Coverage: the named layers' self time against the traced searches'
	// wall time. What is left is the search loop's own bookkeeping.
	var named time.Duration
	for _, k := range []spanKind{spanRules, spanCleanup, spanFuse1Q, spanPhaseFold, spanResynth, spanCost, spanNumeric2Q, spanNumeric3Q} {
		named += lt.own[k]
	}
	l["trace.layer_coverage_ratio"] = 0
	if searched > 0 {
		l["trace.layer_coverage_ratio"] = named.Seconds() / searched
	}
	return l
}
