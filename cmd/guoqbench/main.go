// Command guoqbench regenerates the paper's tables and figures, and runs
// sharded benchmark sweeps.
//
// Usage:
//
//	guoqbench -exp fig1 [-budget 500ms] [-trials 3] [-limit 40] [-seed 1]
//	          [-shard i/n] [-json out.json]
//
// Experiments: table2, table3, fig1, fig7, fig8, fig9, fig10, fig11,
// fig12, fig13, fig14, fig15, parallel, huge, bench, all. -limit 0 runs
// the full 247-circuit suite (slow); smaller limits subsample evenly.
// Output mirrors the rows and series the paper reports ("parallel" compares
// the portfolio and partition-parallel engines against the single-threaded
// loop); see EXPERIMENTS.md for the recorded runs. "huge" runs guoq and
// the -workers portfolio and partition-parallel runners on one generated
// ibmq20 circuit of -huge-gates gates; its -json output is the
// BENCH_huge.json snapshot the repository's perf gate replays.
//
// Distributed sweeps: -shard i/n statically runs every n-th circuit
// starting at i (any experiment), so n machines cover one suite exactly
// once with no coordination. Every circuit runs for the same -budget, so
// the shards finish together. The "bench" experiment sweeps the suite
// through GUOQ once per circuit and records per-circuit results; -json
// writes them as a JSON array streamed one element per finished circuit
// (to a file, or stdout with "-"). jq -s add bench_*.json merges the
// shards' arrays, and a shard whose machine died is re-run with the same
// -shard i/n.
//
// The bench sweep is interruptible: SIGINT/SIGTERM stops between circuits
// (the in-flight circuit finishes with its best-so-far), the JSON array is
// closed validly, and the partial results are reported.
//
// -metrics embeds a per-circuit observability snapshot in each bench
// record: heap allocations per search iteration and the full metric
// registry of that circuit's run (engine cache hit/miss counters, per-rule
// accept series), each circuit against a fresh registry — with -json this
// yields machine-readable cache-hit trajectories across the suite.
//
// Custom targets: -gateset-file registers a gate set from a JSON
// description (guoq.ParseGateSetJSON), after which -gateset can name it —
// the suite is translated into the custom basis like any built-in target.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/guoq-dev/guoq"
	"github.com/guoq-dev/guoq/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "fig1", "experiment id (table2, table3, fig1, fig7..fig15, parallel, huge, bench, all)")
		budget  = flag.Duration("budget", 300*time.Millisecond, "per-tool per-circuit budget")
		trials  = flag.Int("trials", 3, "GUOQ trials per benchmark")
		limit   = flag.Int("limit", 40, "suite subsample size (0 = full 247)")
		seed    = flag.Int64("seed", 1, "base random seed")
		shard   = flag.String("shard", "", "static shard i/n: run every n-th circuit starting at i (e.g. 0/4)")
		jsonOut = flag.String("json", "", "write results as JSON (bench and huge; \"-\" = stdout)")
		gateSet = flag.String("gateset", "ibmq20", "target gate set for bench (built-in or loaded via -gateset-file)")
		gsFile  = flag.String("gateset-file", "", "register a custom gate set from a JSON description (guoq.ParseGateSetJSON) before resolving -gateset")
		workers = flag.Int("workers", 1, "per-circuit portfolio size for bench")
		metrics = flag.Bool("metrics", false, "embed a per-circuit metrics snapshot (allocs/iter, cache hits, per-rule accepts) in bench results")
		hgGates = flag.Int("huge-gates", 10000, "generated circuit size for the huge experiment")
	)
	flag.Parse()
	if *gsFile != "" {
		data, err := os.ReadFile(*gsFile)
		if err != nil {
			fatal(err)
		}
		gs, err := guoq.ParseGateSetJSON(data)
		if err != nil {
			fatal(err)
		}
		if err := guoq.RegisterGateSet(gs); err != nil {
			fatal(err)
		}
	}

	// With -json - the machine-readable array owns stdout; every human
	// line (headers, per-circuit progress, summaries) moves to stderr.
	hout := os.Stdout
	if *jsonOut == "-" {
		hout = os.Stderr
	}

	cfg := experiments.Config{
		Budget:     *budget,
		Trials:     *trials,
		SuiteLimit: *limit,
		Epsilon:    1e-8,
		Seed:       *seed,
		Out:        hout,
	}
	if *shard != "" {
		if _, err := fmt.Sscanf(*shard, "%d/%d", &cfg.Shard, &cfg.Shards); err != nil ||
			cfg.Shards < 1 || cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
			fatal(fmt.Errorf("bad -shard %q (want i/n with 0 ≤ i < n)", *shard))
		}
	}

	// SIGINT/SIGTERM cancels the sweep between circuits; a second signal
	// kills immediately (default handling is restored after the first).
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	go func() {
		<-ctx.Done()
		stopSig()
	}()

	runBench := func() error {
		bo := experiments.BenchOptions{GateSet: *gateSet, Workers: *workers, Context: ctx, Metrics: *metrics}
		if host, err := os.Hostname(); err == nil {
			bo.Worker = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		if *jsonOut != "" {
			w := os.Stdout
			if *jsonOut != "-" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			bo.JSON = w
		}
		results, err := experiments.Bench(cfg, bo)
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			fmt.Fprintf(cfg.Out, "bench: interrupted after %d circuits (partial results reported)\n", len(results))
			return nil
		}
		fmt.Fprintf(cfg.Out, "bench: %d circuits optimized\n", len(results))
		return nil
	}

	runHuge := func() error {
		var w *os.File
		if *jsonOut != "" {
			w = os.Stdout
			if *jsonOut != "-" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
		}
		var jw io.Writer
		if w != nil {
			jw = w
		}
		_, err := experiments.Huge(cfg, *workers, 20, *hgGates, jw)
		return err
	}

	run := func(id string) error {
		fmt.Fprintf(hout, "### %s (budget=%v trials=%d limit=%d)\n\n", id, *budget, *trials, *limit)
		start := time.Now()
		var err error
		var sums []experiments.Summary
		switch id {
		case "table2":
			err = experiments.Table2(cfg)
		case "table3":
			err = experiments.Table3(cfg)
		case "fig1":
			sums, err = experiments.Fig1(cfg)
		case "fig7":
			_, err = experiments.Fig7(cfg)
		case "fig8":
			sums, err = experiments.Fig8(cfg)
		case "fig9":
			sums, err = experiments.Fig9(cfg)
		case "fig10":
			sums, err = experiments.Fig10(cfg)
		case "fig11":
			sums, err = experiments.Fig11(cfg)
		case "fig12":
			sums, err = experiments.Fig12(cfg)
		case "fig13":
			sums, err = experiments.Fig13(cfg)
		case "fig14":
			sums, err = experiments.Fig14(cfg)
		case "fig15":
			_, err = experiments.Fig15(cfg)
		case "parallel":
			sums, err = experiments.Parallel(cfg)
		case "huge":
			err = runHuge()
		case "bench":
			err = runBench()
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return err
		}
		for _, s := range sums {
			fmt.Fprintf(hout, "summary: vs %-26s %-13s better/match/worse = %d/%d/%d  mean guoq=%.3f tool=%.3f\n",
				s.Tool, s.Metric, s.Better, s.Match, s.Worse, s.GUOQMean, s.ToolMean)
		}
		fmt.Fprintf(hout, "\n(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table2", "table3", "fig15", "fig1", "fig7", "fig8",
			"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "parallel"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "guoqbench:", err)
	os.Exit(1)
}
