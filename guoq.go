// Package guoq is a quantum-circuit optimizer that unifies fast rewrite
// rules and slow unitary resynthesis behind a single randomized search, a
// from-scratch Go reproduction of "Optimizing Quantum Circuits, Fast and
// Slow" (ASPLOS 2025).
//
// Quick start:
//
//	c, _ := guoq.ParseQASM(src)
//	out, res, _ := guoq.Optimize(c, guoq.Options{
//		GateSet: "ibm-eagle",
//		Budget:  2 * time.Second,
//	})
//	fmt.Println(res.TwoQubitBefore, "->", out.TwoQubitCount())
//
// The optimizer guarantees the result is ε-equivalent to the input under
// the Hilbert–Schmidt distance (Thm 5.3 of the paper): rewrite rules are
// exact, resynthesis consumes an explicitly tracked error budget.
//
// GUOQ is an anytime algorithm, and the Session API exposes that: Start
// returns immediately with a handle whose Best gives a valid snapshot at
// any moment, Events streams progress, and cancelling the context (or
// calling Stop) ends the search gracefully with the best solution found
// so far:
//
//	sess, _ := guoq.Start(ctx, c, guoq.Options{GateSet: "ibm-eagle"})
//	for ev := range sess.Events() {
//		fmt.Printf("iter %d best cost %.1f\n", ev.Iters, ev.BestCost)
//	}
//	out, res, _ := sess.Wait() // best-so-far, even if ctx was cancelled
package guoq

import (
	"context"
	"fmt"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
)

// MetricsRegistry is a set of named metric series — counters, gauges, and
// latency histograms — that an optimization run reports into: iterations,
// per-transformation accept/reject attribution, rewrite-engine cache
// statistics, resynthesis queue depth, proposal and synthesis latency.
// Registries are safe for concurrent use and cheap to scrape; one registry
// may be shared by many runs (series accumulate) or created per run.
// WritePrometheus emits the standard text exposition format, so the same
// registry that feeds Session.Metrics can back an HTTP /metrics endpoint.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry for Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Circuit is an ordered list of gate applications on a fixed number of
// qubits. Build one with NewCircuit and the gate constructors, or parse
// OpenQASM 2.0 with ParseQASM.
type Circuit = circuit.Circuit

// Gate is a single gate application.
type Gate = gate.Gate

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// ParseQASM parses an OpenQASM 2.0 (subset) program.
func ParseQASM(src string) (*Circuit, error) { return circuit.ParseQASM(src) }

// Gate constructors (controls first, then targets).
var (
	H    = gate.NewH
	X    = gate.NewX
	Y    = gate.NewY
	Z    = gate.NewZ
	S    = gate.NewS
	Sdg  = gate.NewSdg
	T    = gate.NewT
	Tdg  = gate.NewTdg
	SX   = gate.NewSX
	Rx   = gate.NewRx
	Ry   = gate.NewRy
	Rz   = gate.NewRz
	U1   = gate.NewU1
	U2   = gate.NewU2
	U3   = gate.NewU3
	CX   = gate.NewCX
	CZ   = gate.NewCZ
	Swap = gate.NewSwap
	Rxx  = gate.NewRxx
	Rzz  = gate.NewRzz
	CP   = gate.NewCP
	CCX  = gate.NewCCX
	CCZ  = gate.NewCCZ
)

// GateSets lists every addressable target gate set: the paper's five
// ("ibmq20", "ibm-eagle", "ionq", "nam", "cliffordt", Table 2) followed by
// the sets added with RegisterGateSet, sorted by name.
func GateSets() []string {
	return gateset.Names()
}

// Translate decomposes a circuit into a target gate set, preserving the
// unitary up to global phase.
func Translate(c *Circuit, gateSet string) (*Circuit, error) {
	gs, err := gateset.ByName(gateSet)
	if err != nil {
		return nil, err
	}
	return gateset.Translate(c, gs)
}

// Objective selects the optimization cost function.
type Objective string

// DefaultObjective returns the objective Optimize uses when Options leaves
// it empty: MinimizeT for the cliffordt gate set, MinimizeTwoQubit for
// everything else. Exported so callers that need the resolved objective
// before optimizing (cmd/guoq derives the distributed session id from it)
// cannot drift from the library's defaulting.
func DefaultObjective(gateSet string) Objective {
	if gateSet == "cliffordt" {
		return MinimizeT
	}
	return MinimizeTwoQubit
}

// Available objectives.
const (
	// MinimizeTwoQubit minimizes two-qubit gate count (NISQ default).
	MinimizeTwoQubit Objective = "2q"
	// MinimizeT minimizes 2·T + CX (the FTQC objective of Example 5.1).
	MinimizeT Objective = "t"
	// MaximizeFidelity maximizes estimated success probability under the
	// gate set's device model.
	MaximizeFidelity Objective = "fidelity"
	// MinimizeGates minimizes total gate count.
	MinimizeGates Objective = "gates"
)

// Options configures Optimize and Start.
type Options struct {
	// GateSet is the target gate set name — built-in or registered via
	// RegisterGateSet; the input must already be native to it (use
	// Translate first). Required unless Target is set.
	GateSet string
	// Target selects the target gate set as either a registered name
	// (string) or a *GateSet value directly — the latter needs no
	// registration, so ad-hoc targets stay run-local. Mutually exclusive
	// with GateSet.
	Target any
	// Objective defaults to MinimizeTwoQubit (MinimizeT for cliffordt).
	// Mutually exclusive with Cost.
	Objective Objective
	// Cost, when set, supplies a custom optimization objective in place of
	// the built-in Objective enum: the search minimizes Cost.Cost and the
	// never-worse guarantee is stated against it. Wrap a plain function
	// with CostFunc. The function must be pure (same circuit, same value)
	// and safe for concurrent use — parallel modes score candidates from
	// several goroutines. Result.Objective reports "custom".
	Cost Cost
	// Epsilon is the global approximation budget ε_f (default 1e-8;
	// 0 disables approximate resynthesis entirely).
	Epsilon float64
	// Budget is sugar for a context deadline: Start derives its run context
	// via context.WithTimeout(ctx, Budget), so cancellation and deadline
	// are one mechanism. For Optimize, 0 keeps the historical 1 s default;
	// for Start, 0 means no deadline — the session runs until the caller's
	// ctx cancels or Stop is called (the anytime mode). Prefer passing a
	// ctx with a deadline to Start; Budget remains for compatibility.
	Budget time.Duration
	// Seed makes runs reproducible (synchronous mode).
	Seed int64
	// MaxIters bounds search iterations (0 = unlimited). A synchronous
	// single-worker run bounded by MaxIters (with a budget generous enough
	// not to fire first) is bit-for-bit reproducible for equal seeds.
	MaxIters int
	// Async runs resynthesis asynchronously alongside rewriting (§5.3).
	Async bool
	// Parallelism is the number of concurrent search workers. 0 or 1 runs
	// the classic single-threaded loop; larger values launch a portfolio of
	// GUOQ workers with diversified seeds and temperatures that periodically
	// exchange the best-so-far solution. Parallel runs are not bit-for-bit
	// reproducible; the ε guarantee is unchanged.
	Parallelism int
	// PartitionParallel is the large-circuit mode: it splits the circuit
	// into up to Parallelism disjoint time windows optimized concurrently,
	// dividing Epsilon across windows (the summed window errors stay within
	// the global budget, Thm 4.2). The windows are stitched back once, when
	// they all finish, so a Session's mid-run Best stays at the input.
	// Circuits too small to window fall back to the portfolio. Requires
	// Parallelism ≥ 2.
	PartitionParallel bool
	// Exchanger, when set, connects this run to an external best-so-far
	// store so several processes (or machines) optimize one circuit as a
	// single search: the run publishes its best solution with its
	// accumulated error bound and adopts strictly better remote solutions.
	// Use internal/dist's client via cmd/guoq -coordinator, or implement
	// the interface to bridge your own transport. The ε guarantee is
	// preserved across migration — adopted solutions carry their own
	// bounds, which the search keeps charging against Epsilon.
	Exchanger Exchanger
	// Transformations extends this run's portfolio with caller-supplied
	// transformations — rules built with NewRule, synthesizers wrapped
	// with UseSynthesizer — sampled by the search exactly like the
	// built-in ones (process-wide registration: RegisterTransformation).
	// Extensions compose with the default portfolio; they never replace
	// it. Empty leaves the portfolio exactly as in previous releases.
	Transformations []Transformation
	// Metrics, when set, is the registry this run reports its metric
	// series into — share one registry across runs to aggregate, or expose
	// it over HTTP with WritePrometheus. Nil gives the session a private
	// registry (Session.Metrics still works); the search loop itself stays
	// free of instrumentation cost beyond a pointer check either way, and
	// instrumented runs remain bit-identical to uninstrumented ones for
	// equal seeds (metrics consume no randomness).
	Metrics *MetricsRegistry
}

// Exchanger is a shared best-so-far store connecting concurrent searches;
// see Options.Exchanger. Implementations must be safe for concurrent use
// and must never mutate a circuit after returning it.
type Exchanger = opt.Exchanger

// Cost is a custom optimization objective: any pure function scoring a
// circuit, which the search minimizes. Implementations must be safe for
// concurrent use (parallel modes score from several goroutines) and fast —
// the cost runs on the search's hot path, once per candidate.
type Cost interface {
	Cost(c *Circuit) float64
}

// CostFunc adapts a plain function to the Cost interface:
//
//	opts.Cost = guoq.CostFunc(func(c *guoq.Circuit) float64 {
//		return float64(c.Depth())
//	})
type CostFunc func(c *Circuit) float64

// Cost implements the Cost interface.
func (f CostFunc) Cost(c *Circuit) float64 { return f(c) }

// ObjectiveCustom is what Result.Objective reports when Options.Cost
// supplied a caller-defined objective.
const ObjectiveCustom Objective = "custom"

// Result reports optimization statistics. Every field is valid for
// cancelled runs too: a session stopped mid-search reports the true
// before/after counts, accumulated Error, and iteration statistics of the
// best-so-far circuit actually returned (the anytime contract).
type Result struct {
	GateSet        string
	Objective      Objective
	Before, After  int // total gate counts
	TwoQubitBefore int
	TwoQubitAfter  int
	TCountBefore   int
	TCountAfter    int
	DepthBefore    int
	DepthAfter     int
	FidelityBefore float64
	FidelityAfter  float64
	// Error is the accumulated ε upper bound of the returned circuit
	// relative to the input (≤ Options.Epsilon; 0 when only exact
	// transformations were applied).
	Error float64
	// Iters and Accepted are the cumulative search-loop counters (summed
	// across workers in parallel modes).
	Iters    int
	Accepted int
	// Migrations counts how many times the search adopted a better
	// solution from Options.Exchanger (0 without one).
	Migrations int
	Elapsed    time.Duration
	// Rules is the per-transformation attribution table: how often each
	// transformation in the portfolio was attempted, accepted, and
	// rejected, sorted by accepts (ties by name). Only the final Result of
	// a finished run carries it; mid-run Best snapshots leave it nil.
	Rules []RuleStat
}

// RuleStat is one row of Result.Rules: the attempt/accept/reject counts of
// a single named transformation (rewrite rules as "rule:<name>",
// resynthesis as "resynth:<name>").
type RuleStat struct {
	Name     string
	Attempts int
	Accepted int
	Rejected int
}

// Validate reports the first configuration error in o, with the silently
// ignored combinations of older releases now rejected explicitly:
// PartitionParallel without Parallelism ≥ 2, an Objective set alongside a
// custom Cost, negative budgets, unknown gate-set or objective names, and
// a Target that is neither a known name nor a valid *GateSet. Start and
// Optimize call it after applying defaults; call it directly to fail fast
// on configuration assembled from user input.
func (o Options) Validate() error {
	if _, err := resolveTarget(o); err != nil {
		return err
	}
	if o.Cost != nil && o.Objective != "" && o.Objective != ObjectiveCustom {
		return fmt.Errorf("guoq: Options.Cost and Options.Objective %q are mutually exclusive (set one)", o.Objective)
	}
	if o.Cost == nil && o.Objective != "" {
		switch o.Objective {
		case MinimizeTwoQubit, MinimizeT, MaximizeFidelity, MinimizeGates:
		default:
			return fmt.Errorf("guoq: unknown objective %q", o.Objective)
		}
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("guoq: Options.Epsilon must be ≥ 0, got %g", o.Epsilon)
	}
	if o.Budget < 0 {
		return fmt.Errorf("guoq: Options.Budget must be ≥ 0, got %v", o.Budget)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("guoq: Options.Parallelism must be ≥ 0, got %d", o.Parallelism)
	}
	if o.MaxIters < 0 {
		return fmt.Errorf("guoq: Options.MaxIters must be ≥ 0, got %d", o.MaxIters)
	}
	if o.PartitionParallel && o.Parallelism < 2 {
		return fmt.Errorf("guoq: Options.PartitionParallel requires Parallelism ≥ 2, got %d", o.Parallelism)
	}
	return nil
}

// resolveCost maps the configured objective (enum or custom Cost) to the
// internal cost function and the label Result.Objective reports.
func resolveCost(o Options, gs *gateset.GateSet) (opt.Cost, Objective, error) {
	if o.Cost != nil {
		cc := o.Cost
		return func(c *circuit.Circuit) float64 { return cc.Cost(c) }, ObjectiveCustom, nil
	}
	model := gateset.ModelFor(gs)
	switch o.Objective {
	case MinimizeTwoQubit:
		return opt.TwoQubitCost(), o.Objective, nil
	case MinimizeT:
		return opt.TCost(), o.Objective, nil
	case MaximizeFidelity:
		return opt.FidelityCost(model), o.Objective, nil
	case MinimizeGates:
		return opt.GateCountCost(), o.Objective, nil
	default:
		return nil, "", fmt.Errorf("guoq: unknown objective %q", o.Objective)
	}
}

// Optimize runs the GUOQ algorithm on a circuit already expressed in the
// target gate set and returns the optimized circuit with statistics. The
// result is always at least as good as the input under the chosen
// objective, and ε-equivalent to it.
//
// Optimize is a thin synchronous wrapper over Start + Wait: seeded
// synchronous runs produce bit-identical output through either entry
// point. Use Start directly when you need cancellation, live progress, or
// mid-run snapshots.
func Optimize(c *Circuit, o Options) (*Circuit, *Result, error) {
	if o.Budget == 0 {
		o.Budget = time.Second
	}
	s, err := Start(context.Background(), c, o)
	if err != nil {
		return nil, nil, err
	}
	return s.Wait()
}

// Distance returns the Hilbert–Schmidt distance (Def. 3.2) between two
// circuits' unitaries — the metric of the ε guarantee, and the one the
// framework uses to verify Synthesizer proposals. A Synthesizer
// implementation reports Distance(sub, replacement) as its consumed ε.
// Both circuits must act on the same number of qubits; the cost is
// exponential in it (fine for the ≤ 3-qubit subcircuits synthesizers see).
func Distance(a, b *Circuit) float64 {
	return linalg.HSDistance(a.Unitary(), b.Unitary())
}

// EstimateFidelity returns the estimated success probability of a circuit
// under the device model the paper pairs with the gate set.
func EstimateFidelity(c *Circuit, gateSet string) (float64, error) {
	gs, err := gateset.ByName(gateSet)
	if err != nil {
		return 0, err
	}
	return gateset.ModelFor(gs).CircuitFidelity(c), nil
}
