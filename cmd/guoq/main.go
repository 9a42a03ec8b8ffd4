// Command guoq optimizes an OpenQASM 2.0 circuit with the GUOQ algorithm.
//
// Usage:
//
//	guoq -gateset ibm-eagle -budget 2s [-objective 2q|t|fidelity|gates]
//	     [-epsilon 1e-8] [-seed 1] [-async] [-parallel N] [-partition]
//	     [-gateset-file set.json] [-coordinator addr] [-session id]
//	     [-token secret] [-wire json|gzip] [-progress] [-metrics]
//	     [-pprof-addr :6060] [-o out.qasm] input.qasm
//	guoq -list-gatesets
//
// The input is translated into the target gate set first, so any circuit in
// the supported vocabulary is accepted. Statistics go to stderr, the
// optimized QASM to -o or stdout.
//
// -list-gatesets prints every addressable target (built-ins plus whatever
// -gateset-file adds) with its basis and exits. -gateset-file registers a
// custom gate set from a JSON description (see guoq.ParseGateSetJSON), so
// -gateset can name targets beyond the paper's five.
//
// GUOQ is an anytime algorithm and the CLI honors that: SIGINT/SIGTERM
// stops the search gracefully and emits the best circuit found so far
// (press Ctrl-C twice to abort hard). -budget 0 runs until interrupted.
// -progress streams live search statistics to stderr.
//
// With -coordinator addr the run joins a distributed search through a
// guoqd daemon. The circuit is first submitted: if the coordinator's
// content-addressed result cache already holds an optimized circuit for
// this exact (circuit, target, ε, objective), it is emitted immediately
// without spending any search time; otherwise the run joins the exchange
// session the coordinator assigns, periodically publishing its best
// solution (with its accumulated ε bound) and adopting strictly better
// solutions found by other machines. Runs started on the same input with
// the same objective and epsilon share a session automatically; pass
// -session to pin one explicitly (which skips the submit/cache step).
// The wire format is JSON; -wire gzip compresses request bodies and asks
// for compressed replies, negotiated per request. The signal context
// propagates into the coordinator client, so an interrupt also aborts
// in-flight exchange requests.
//
// -metrics dumps the run's metric series to stderr after the run: the
// per-transformation attribution table (attempts/accepts/rejects per rule
// and synthesizer), engine cache statistics, and the full registry in
// Prometheus text format. -pprof-addr serves net/http/pprof on a separate
// listener for CPU/heap profiling of long runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/guoq-dev/guoq"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/opt"
)

func main() {
	var (
		gateSet   = flag.String("gateset", "ibm-eagle", "target gate set: ibmq20|ibm-eagle|ionq|nam|cliffordt")
		objective = flag.String("objective", "", "objective: 2q|t|fidelity|gates (default: 2q, or t for cliffordt)")
		epsilon   = flag.Float64("epsilon", 1e-8, "global approximation budget ε_f")
		budget    = flag.Duration("budget", 2*time.Second, "search time budget (0 = run until interrupted)")
		seed      = flag.Int64("seed", 1, "random seed")
		async     = flag.Bool("async", false, "apply resynthesis asynchronously")
		parallel  = flag.Int("parallel", 1, "concurrent search workers (0 = one per CPU, capped at 8)")
		part      = flag.Bool("partition", false, "with -parallel ≥ 2, optimize disjoint time windows of large circuits concurrently")
		coord     = flag.String("coordinator", "", "guoqd coordinator address for distributed best-so-far exchange")
		session   = flag.String("session", "", "exchange session id (default: negotiated via submit, falling back to local derivation)")
		token     = flag.String("token", os.Getenv("GUOQD_TOKEN"), "bearer token for a -coordinator started with -token (default $GUOQD_TOKEN)")
		wire      = flag.String("wire", "json", "coordinator wire format: json|gzip")
		progress  = flag.Bool("progress", false, "stream live search progress to stderr")
		metrics   = flag.Bool("metrics", false, "dump per-rule attribution and the full metric registry (Prometheus text) to stderr after the run")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		outPath   = flag.String("o", "", "output QASM path (default stdout)")
		gsFile    = flag.String("gateset-file", "", "register a custom gate set from a JSON description before resolving -gateset")
		listSets  = flag.Bool("list-gatesets", false, "list every addressable gate set and exit")
	)
	flag.Parse()
	if *gsFile != "" {
		if err := registerGateSetFile(*gsFile); err != nil {
			fatal(err)
		}
	}
	if *listSets {
		listGateSets()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: guoq [flags] input.qasm")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	parsed, err := guoq.ParseQASM(string(src))
	if err != nil {
		fatal(err)
	}
	native, err := guoq.Translate(parsed, *gateSet)
	if err != nil {
		fatal(err)
	}
	workers := *parallel
	if workers <= 0 {
		workers = opt.AutoWorkers()
	}
	if *pprofAddr != "" {
		// pprof rides the default mux on its own listener, kept apart from
		// any user-facing port so profiling is never accidentally exposed.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "guoq: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// First SIGINT/SIGTERM cancels the run context — the session winds down
	// and returns its best-so-far. stopSig() then restores default signal
	// handling, so a second Ctrl-C kills the process the classic way.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	go func() {
		<-ctx.Done()
		stopSig()
	}()

	obj := guoq.Objective(*objective)
	if obj == "" {
		obj = guoq.DefaultObjective(*gateSet)
	}
	var client *dist.Client
	if *coord != "" {
		worker := fmt.Sprintf("pid-%d", os.Getpid())
		if host, herr := os.Hostname(); herr == nil {
			worker = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		client, err = dist.Dial(*coord, *session, worker)
		if err != nil {
			fatal(err)
		}
		client.Epsilon = *epsilon
		client.Context = ctx
		client.Token = *token
		switch *wire {
		case "json":
		case "gzip":
			client.Gzip = true
		default:
			fatal(fmt.Errorf("unknown -wire format %q (want json|gzip)", *wire))
		}
		if *session == "" {
			// Submit first: the coordinator canonicalizes the circuit and
			// either answers from its result cache — done, no search — or
			// assigns the session bound to that cache slot.
			resp, serr := client.Submit(native, *gateSet, string(obj), *epsilon)
			switch {
			case serr == nil && resp.Cached:
				cached, cachedErr, oerr := resp.Best.Open()
				if oerr != nil {
					fatal(oerr)
				}
				fmt.Fprintf(os.Stderr, "coordinator %s: cache hit — optimized circuit served without search (cost %.3f, ε=%.3g)\n",
					*coord, resp.Best.Cost, cachedErr)
				emitQASM(cached.WriteQASM(), *outPath)
				return
			case serr == nil:
				client.Session = resp.Session
			default:
				// Older coordinator without /v1/submit (or a transient
				// failure past retries): fall back to the local derivation
				// every worker computes identically.
				client.Session = dist.SessionID(native, string(obj), *epsilon)
				fmt.Fprintf(os.Stderr, "coordinator submit unavailable (%v); using derived session\n", serr)
			}
		}
		fmt.Fprintf(os.Stderr, "coordinator %s, session %s\n", *coord, client.Session)
	}

	o := guoq.Options{
		GateSet:           *gateSet,
		Objective:         obj,
		Epsilon:           *epsilon,
		Budget:            *budget,
		Seed:              *seed,
		Async:             *async,
		Parallelism:       workers,
		PartitionParallel: *part,
	}
	var reg *guoq.MetricsRegistry
	if *metrics {
		reg = guoq.NewMetricsRegistry()
		o.Metrics = reg
		if client != nil {
			client.Instrument(reg)
		}
	}
	if client != nil {
		o.Exchanger = client
	}
	sess, err := guoq.Start(ctx, native, o)
	if err != nil {
		fatal(err)
	}
	if *progress {
		go func() {
			last := time.Time{}
			for ev := range sess.Events() {
				// Improvements always print; heartbeats at most 2 Hz.
				if !ev.Improved && time.Since(last) < 500*time.Millisecond {
					continue
				}
				last = time.Now()
				fmt.Fprintf(os.Stderr, "progress   %8d iters  %6.2f%% accepted  best cost %.3f  ε=%.3g  resynth=%d\n",
					ev.Iters, 100*ev.AcceptanceRate, ev.BestCost, ev.Error, ev.ResynthInFlight)
			}
		}()
	}
	out, res, err := sess.Wait()
	if err != nil {
		fatal(err)
	}
	// The signal context errors only on SIGINT/SIGTERM — Start applies the
	// -budget deadline on a derived context, invisible here.
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted — emitting best-so-far")
	}
	fmt.Fprintf(os.Stderr, "gateset    %s (objective %s, ε=%g, %v)\n",
		res.GateSet, res.Objective, *epsilon, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "gates      %6d -> %6d\n", res.Before, res.After)
	fmt.Fprintf(os.Stderr, "2q gates   %6d -> %6d\n", res.TwoQubitBefore, res.TwoQubitAfter)
	fmt.Fprintf(os.Stderr, "T gates    %6d -> %6d\n", res.TCountBefore, res.TCountAfter)
	fmt.Fprintf(os.Stderr, "depth      %6d -> %6d\n", res.DepthBefore, res.DepthAfter)
	fmt.Fprintf(os.Stderr, "fidelity   %.4f -> %.4f\n", res.FidelityBefore, res.FidelityAfter)
	fmt.Fprintf(os.Stderr, "search     %d iters, %d accepted\n", res.Iters, res.Accepted)
	if client != nil {
		st := client.Stats()
		fmt.Fprintf(os.Stderr, "exchange   %d round trips (%d throttled), %d adoptions, %d migrations into the search, %d errors\n",
			st.Exchanges, st.Throttled, st.Adoptions, res.Migrations, st.Errors)
	}
	if *metrics {
		snap := sess.Metrics()
		fmt.Fprintf(os.Stderr, "engine     %.0f cache hits, %.0f positive replays, %.0f misses, %.0f splices, %.0f invalidated (halo depth %.0f)\n",
			snap["guoq_engine_cache_hits_total"], snap["guoq_engine_positive_hits_total"],
			snap["guoq_engine_cache_misses_total"], snap["guoq_engine_splices_total"],
			snap["guoq_engine_invalidated_total"], snap["guoq_engine_halo_depth"])
		if len(res.Rules) > 0 {
			fmt.Fprintf(os.Stderr, "%-40s %9s %9s %9s\n", "transformation", "attempts", "accepted", "rejected")
			for _, r := range res.Rules {
				fmt.Fprintf(os.Stderr, "%-40s %9d %9d %9d\n", r.Name, r.Attempts, r.Accepted, r.Rejected)
			}
		}
		fmt.Fprintln(os.Stderr, "--- metrics (Prometheus text) ---")
		_ = reg.WritePrometheus(os.Stderr)
	}

	emitQASM(out.WriteQASM(), *outPath)
}

// emitQASM writes the result to -o, or stdout when unset.
func emitQASM(qasm, outPath string) {
	if outPath == "" {
		fmt.Print(qasm)
		return
	}
	if err := os.WriteFile(outPath, []byte(qasm), 0o644); err != nil {
		fatal(err)
	}
}

// registerGateSetFile loads and registers a custom gate set description so
// -gateset (and session derivation) can name it.
func registerGateSetFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	gs, err := guoq.ParseGateSetJSON(data)
	if err != nil {
		return err
	}
	return guoq.RegisterGateSet(gs)
}

// listGateSets prints every addressable target with its basis.
func listGateSets() {
	for _, name := range guoq.GateSets() {
		gs, err := guoq.LookupGateSet(name)
		if err != nil {
			continue
		}
		arch := gs.Architecture
		if arch == "" {
			arch = "none"
		}
		fmt.Printf("%-16s %-16s %s\n", gs.Name, arch, strings.Join(gs.Basis, " "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "guoq:", err)
	os.Exit(1)
}
