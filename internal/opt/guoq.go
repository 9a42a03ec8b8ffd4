package opt

import (
	"context"
	"math"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// Options configures a GUOQ run (Alg. 1 plus the implementation details of
// §5.3).
type Options struct {
	// Epsilon is the global error budget ε_f (hard constraint, Def. 5.2).
	Epsilon float64
	// Cost is the soft-constraint objective to minimize.
	Cost Cost
	// Temperature is the annealing hyperparameter t (10 in the paper —
	// a very small probability of accepting a worse solution).
	Temperature float64
	// ResynthProb is the probability of choosing a slow transformation
	// (0.015 in §5.3).
	ResynthProb float64
	// TimeBudget bounds the wall-clock search time (the paper uses 1 h; the
	// compressed experiments use 100 ms – 2 s).
	TimeBudget time.Duration
	// MaxIters bounds iterations (0 = unlimited); used by tests.
	MaxIters int
	// Seed drives all randomness; runs with equal seeds are reproducible
	// (in synchronous mode).
	Seed int64
	// Async applies resynthesis asynchronously (§5.3): rewrite moves keep
	// running while a synthesis call is in flight, and an accepted result
	// discards the interim rewrites. Synchronous mode is deterministic.
	Async bool
	// WarmStart applies every fast transformation once, deterministically,
	// before the stochastic loop (with the usual acceptance rule). The
	// randomized search reaches the same fixpoint given time; doing it up
	// front removes compressed-budget noise without changing the
	// algorithm's limit behaviour.
	WarmStart bool
	// OnImprove, when set, is invoked every time the best solution
	// improves — the hook behind the Fig. 7 time series.
	OnImprove func(elapsed time.Duration, best *circuit.Circuit)
	// Exchanger, when set, is polled every ExchangeEvery iterations with the
	// worker's best solution and its accumulated error bound. It may return
	// a replacement solution (with its own error bound) to adopt as the
	// current search point — the migration channel of the portfolio
	// coordinator, or of a remote guoqd coordinator (internal/dist).
	// Adoption is only performed when the replacement's cost beats the
	// worker's current cost, so a stale coordinator can never regress a
	// worker. The replacement must never be mutated by the callee afterwards.
	Exchanger Exchanger
	// ExchangeEvery is the polling period in iterations (default 64). A
	// negative value disables migration entirely: Portfolio workers then
	// search fully independently, which makes an iteration-bounded
	// synchronous portfolio deterministic (worker 0 reproduces the
	// equally-seeded single-worker run exactly).
	ExchangeEvery int
	// Context, when non-nil, cancels the search: the loop returns its
	// best-so-far (a valid, ε-bounded, never-worse solution) as soon as it
	// observes ctx.Done(). Cancellation composes with TimeBudget/MaxIters —
	// whichever fires first ends the run. Checking the context consumes no
	// randomness, so a run that is never cancelled is bit-identical to one
	// with a nil Context.
	Context context.Context
	// OnEvent, when set, receives progress events: one on every improvement
	// (Event.Best non-nil), a heartbeat every EventEvery iterations, and a
	// final event just before the run returns. Parallel modes invoke it
	// concurrently from several workers; implementations must be safe for
	// concurrent use and fast (the hook runs on the search's hot path).
	OnEvent func(Event)
	// EventEvery is the heartbeat period in iterations (default 256;
	// negative disables heartbeats — improvement and final events still
	// fire).
	EventEvery int
	// Pool, when set together with Async, runs this search's slow
	// transformations on a shared resynthesis pool. Many concurrent
	// searches (portfolio members, partition windows) then share one bounded
	// set of synthesis workers — work-stealing across searches — instead of
	// each holding its own. Each search still has at most one resynthesis
	// in flight; the pool bounds how many of those run simultaneously. With
	// Pool nil an Async search creates a size-1 pool of its own for the
	// run.
	Pool *ResynthPool
	// Metrics, when set, receives live instrumentation: iteration and
	// accept/reject counters attributed per transformation, proposal- and
	// synthesis-latency histograms, ε spend and best cost, and the
	// engine's cache counters (flushed at run end). One Metrics may back
	// any number of concurrent searches; nil disables instrumentation at
	// zero hot-path cost. Reading the clock for the latency histograms
	// consumes no randomness, so instrumented runs stay bit-identical to
	// uninstrumented ones.
	Metrics *Metrics
}

// Event is a point-in-time progress report from a running search, emitted
// through Options.OnEvent. Counter fields are cumulative for the emitting
// worker; an aggregating consumer (the public Session) sums the latest
// event of each Worker.
type Event struct {
	// Worker identifies the emitting search: the portfolio worker index or
	// partition window index (0 for a single-worker run).
	Worker int
	// Elapsed is the time since this worker's search started.
	Elapsed time.Duration
	// Iters and Accepted are the worker's cumulative loop counters.
	Iters    int
	Accepted int
	// Migrations counts exchange adoptions so far.
	Migrations int
	// ResynthInFlight is the number of asynchronous resynthesis calls
	// currently running (0 or 1 per worker).
	ResynthInFlight int
	// BestCost and BestErr describe the worker's best-so-far solution.
	BestCost float64
	BestErr  float64
	// Best is set only on improvement events: a snapshot of the new best
	// circuit, safe to retain (never mutated afterwards). Heartbeat and
	// final events leave it nil. Partition windows also leave it nil —
	// a window-local circuit is not a whole-circuit solution.
	Best *circuit.Circuit
}

// searchDone returns the context's done channel, or nil (blocks forever in
// a select) when no context is configured.
func (o *Options) searchDone() <-chan struct{} {
	if o.Context == nil {
		return nil
	}
	return o.Context.Done()
}

// DefaultOptions mirrors the paper's instantiation: ε_f = 10⁻⁸, t = 10,
// 1.5% resynthesis.
func DefaultOptions() Options {
	return Options{
		Epsilon:     1e-8,
		Temperature: 10,
		ResynthProb: 0.015,
		TimeBudget:  time.Second,
	}
}

// Exchanger is a best-so-far store shared between concurrent searches. A
// worker publishes its best solution together with the solution's
// accumulated error bound and cost; the exchanger may return a strictly
// better solution (with its own error bound) for the worker to adopt.
// Implementations must be safe for concurrent use and must never mutate a
// circuit after handing it out. The in-process portfolio coordinator and
// the networked client of internal/dist both implement this interface.
type Exchanger interface {
	Exchange(best *circuit.Circuit, bestErr, bestCost float64) (adopt *circuit.Circuit, adoptErr float64, ok bool)
}

// Result reports a finished run.
type Result struct {
	Best      *circuit.Circuit
	BestError float64 // accumulated ε upper bound for Best (Thm 4.2)
	Iters     int
	Accepted  int
	// Migrations counts exchange adoptions: how many times the search
	// replaced its current point with a better solution received from the
	// Exchanger (0 without one).
	Migrations int
	Elapsed    time.Duration
	// Rules attributes the run's applications per transformation name:
	// how often each was attempted and how its candidates fared. Parallel
	// modes sum their workers' tables. Transformations sharing a name
	// (the resynthesis ε classes) share one line.
	Rules map[string]*RuleStats
}

// GUOQ runs Alg. 1: repeatedly sample a transformation and a random
// subcircuit, apply, and accept probabilistically based on cost, tracking
// the accumulated error against the ε_f budget.
//
// GUOQ is an anytime algorithm: Options.Context cancellation, the
// TimeBudget deadline, and MaxIters all end the run the same way — the
// strictly-improving best-so-far is returned with its accumulated bound
// and full statistics, so a cancelled run's Result is as trustworthy as a
// completed one's. (An in-flight asynchronous resynthesis call is drained
// before returning, bounded by the synthesizer's own time limit.)
//
// The loop threads one rewrite.Engine through its iterations: the current
// search point lives inside the engine, transformations that implement
// EngineApplier mutate it in place (reusing the engine's incremental DAG
// and per-rule match caches), and the acceptance decision becomes a commit
// or rollback of the engine's transaction log. Published circuits — the
// tracked best, exchange payloads, OnImprove arguments — are always
// snapshots, never the live engine circuit.
func GUOQ(c *circuit.Circuit, ts []Transformation, opts Options) *Result {
	if opts.Cost == nil {
		opts.Cost = TwoQubitCost()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	start := time.Now()
	deadline := start.Add(opts.TimeBudget)

	// Metrics handles are resolved once up front; nil handles are no-ops,
	// so the loop below instruments unconditionally without branching on
	// "is metrics enabled" (except where it would pay for a clock read).
	m := opts.Metrics
	tally, tallyByName := newTally(ts, m)
	var iterC, migrC *obs.Counter
	var epsG, bestG *obs.Gauge
	var propH, synthH *obs.Histogram
	if m != nil {
		iterC, migrC = m.Iterations, m.Migrations
		epsG, bestG = m.EpsilonSpent, m.BestCost
		propH, synthH = m.ProposalSeconds, m.SynthSeconds
	}

	var fast, slow []Transformation
	for _, t := range ts {
		if t.Slow() {
			slow = append(slow, t)
		} else {
			fast = append(fast, t)
		}
	}

	eng := rewrite.NewEngine(c)
	curr := eng.Circuit() // stable pointer to the engine's live circuit
	currErr := 0.0
	currCost := opts.Cost(curr)
	best := eng.Snapshot()
	bestErr := 0.0
	bestCost := currCost

	res := &Result{}
	var worker *poolClient
	if opts.Async && len(slow) > 0 && len(fast) > 0 {
		pool := opts.Pool
		if pool == nil {
			// A lone search: one pool worker is the single background
			// synthesis call of §5.3. It reports no pool metrics, which
			// describe pools shared across searches.
			pool = NewResynthPool(1)
			defer pool.Close()
		}
		worker = pool.newClient()
		defer worker.stop()
	}

	// Cancellation: a nil done channel blocks forever in the select, so a
	// run without a Context never observes it.
	done := opts.searchDone()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	// emit publishes a progress event; best is non-nil only on improvement.
	emit := func(bc *circuit.Circuit) {
		if opts.OnEvent == nil {
			return
		}
		e := Event{
			Elapsed:    time.Since(start),
			Iters:      res.Iters,
			Accepted:   res.Accepted,
			Migrations: res.Migrations,
			BestCost:   bestCost,
			BestErr:    bestErr,
			Best:       bc,
		}
		if worker != nil && worker.inFlight() {
			e.ResynthInFlight = 1
		}
		opts.OnEvent(e)
	}

	improve := func() {
		if currCost < bestCost {
			best, bestErr, bestCost = eng.Snapshot(), currErr, currCost
			bestG.Set(bestCost)
			if opts.OnImprove != nil {
				opts.OnImprove(time.Since(start), best)
			}
			emit(best)
		}
	}

	// finish seals the result: the attribution table, the final gauge
	// values, and the engine's cumulative counters flushed into the shared
	// metrics (once per run — putting atomics inside FullPass would tax
	// the hot path for nothing).
	finish := func() {
		res.Rules = make(map[string]*RuleStats, len(tallyByName))
		for name, e := range tallyByName {
			res.Rules[name] = e.stats
		}
		if m != nil {
			m.AddEngineStats(eng.Stats())
			epsG.Set(bestErr)
			bestG.Set(bestCost)
		}
	}

	// applyFlat is the whole-circuit application path, preferring the
	// cancellation-aware variant when the run has a context so slow calls
	// abort promptly on cancellation (the ctx checks consume no randomness,
	// keeping uncancelled runs bit-identical).
	applyFlat := func(t Transformation, c *circuit.Circuit, allowed float64, r *rand.Rand) (*circuit.Circuit, float64, bool) {
		if opts.Context != nil {
			if ca, ok := t.(ContextApplier); ok {
				return ca.ApplyContext(opts.Context, c, allowed, r)
			}
		}
		return t.Apply(c, allowed, r)
	}

	// applyAny applies t against the engine — in place when the
	// transformation supports it, as a whole-circuit transaction otherwise.
	// On ok the engine holds the candidate and the caller must Commit or
	// Rollback(0).
	applyAny := func(t Transformation, allowed float64, r *rand.Rand) (float64, bool) {
		if opts.Context != nil {
			if ea, ok := t.(EngineContextApplier); ok {
				return ea.ApplyEngineContext(opts.Context, eng, allowed, r)
			}
		}
		if ea, ok := t.(EngineApplier); ok {
			return ea.ApplyEngine(eng, allowed, r)
		}
		out, eps, ok := applyFlat(t, curr, allowed, r)
		if !ok {
			return 0, false
		}
		// Clone defensively: SetCircuit takes ownership, and a caller-
		// supplied transformation may hand back shared state.
		eng.SetCircuit(out.Clone())
		return eps, true
	}

	if opts.WarmStart {
		// Deterministic rounds of every fast transformation with the usual
		// acceptance rule, to a cost fixpoint (bounded rounds). The
		// stochastic loop reaches the same fixpoint eventually; doing it up
		// front removes compressed-budget noise and matches the fixed-pass
		// baselines' deterministic reach before the search proper begins.
		warmRng := rand.New(rand.NewSource(opts.Seed ^ 0x5eed))
		for round := 0; round < 8; round++ {
			roundStart := currCost
			for _, t := range fast {
				e := tally[t]
				e.attempt()
				eps, ok := applyAny(t, 0, warmRng)
				if !ok {
					continue
				}
				if candCost := opts.Cost(curr); candCost <= currCost {
					eng.Commit()
					currCost = candCost
					currErr += eps
					res.Accepted++
					e.accept()
				} else {
					eng.Rollback(0)
					e.reject()
				}
			}
			if opts.TimeBudget > 0 && time.Now().After(deadline) {
				break
			}
			if cancelled() {
				break
			}
			if currCost >= roundStart {
				break
			}
		}
		improve()
	}

	// accept decides per Alg. 1 lines 10-15.
	accept := func(candCost float64) bool {
		if candCost <= currCost {
			return true
		}
		if currCost <= 0 {
			return false
		}
		return rng.Float64() < math.Exp(-opts.Temperature*candCost/currCost)
	}

	exchangeEvery := opts.ExchangeEvery
	if exchangeEvery <= 0 {
		exchangeEvery = 64
	}
	eventEvery := opts.EventEvery
	if eventEvery == 0 {
		eventEvery = 256
	}

	for it := 0; ; it++ {
		if opts.MaxIters > 0 && it >= opts.MaxIters {
			break
		}
		if opts.TimeBudget > 0 && time.Now().After(deadline) {
			break
		}
		if cancelled() {
			break
		}
		if eventEvery > 0 && it > 0 && it%eventEvery == 0 {
			emit(nil)
		}
		res.Iters++
		iterC.Inc()

		// Portfolio migration: publish our best, and adopt the coordinator's
		// best-so-far when it strictly beats our current search point. The
		// adopted circuit carries its own accumulated ε bound, so subsequent
		// budget admission (line 6) stays sound under Thm 4.2. Reset clones
		// the adopted circuit into the engine, so the coordinator's copy is
		// never mutated.
		if opts.Exchanger != nil && it%exchangeEvery == 0 {
			if adopt, adoptErr, ok := opts.Exchanger.Exchange(best, bestErr, bestCost); ok {
				if candCost := opts.Cost(adopt); candCost < currCost {
					eng.Reset(adopt)
					currErr, currCost = adoptErr, candCost
					res.Migrations++
					migrC.Inc()
					epsG.Set(currErr)
					improve()
				}
			}
		}

		// Asynchronous resynthesis (§5.3): harvest a finished call — if
		// accepted, interim rewrite modifications are discarded — and keep
		// the worker continuously busy so slow search saturates wall-clock
		// time while rewrites run in the foreground. The job's result is a
		// transformation of the circuit at launch time, so its total error
		// is the launch-time base plus the incurred eps — not the current
		// currErr, which an exchange adoption may have replaced meanwhile.
		if worker != nil {
			if r, ready := worker.poll(); ready {
				// Attribution and timing come back with the result: the job
				// ran off-loop, so its latency was measured where it ran.
				e := tally[r.t]
				e.attempt()
				if r.dur > 0 {
					synthH.Observe(r.dur.Seconds())
				}
				accepted := false
				if r.ok && r.baseErr+r.eps <= opts.Epsilon {
					candCost := opts.Cost(r.out)
					if accept(candCost) {
						eng.Reset(r.out)
						currCost = candCost
						currErr = r.baseErr + r.eps
						res.Accepted++
						accepted = true
						epsG.Set(currErr)
						improve()
					}
				}
				if accepted {
					e.accept()
				} else if r.ok {
					e.reject()
				}
			}
			if !worker.inFlight() {
				t := slow[rng.Intn(len(slow))]
				if currErr+t.Epsilon() <= opts.Epsilon {
					worker.launch(opts.Context, t, curr.Clone(), currErr, opts.Epsilon-currErr, rng.Int63())
				}
			}
		}

		var t Transformation
		switch {
		case len(fast) == 0 && len(slow) == 0:
			res.Best, res.BestError, res.Elapsed = best, bestErr, time.Since(start)
			finish()
			emit(nil)
			return res
		case len(fast) == 0:
			t = slow[rng.Intn(len(slow))]
		case len(slow) == 0 || worker != nil:
			// With an async worker, foreground iterations are all fast.
			t = fast[rng.Intn(len(fast))]
		case rng.Float64() < opts.ResynthProb:
			t = slow[rng.Intn(len(slow))]
		default:
			t = fast[rng.Intn(len(fast))]
		}

		// Alg. 1 line 6: admission against the remaining error budget.
		if currErr+t.Epsilon() > opts.Epsilon {
			continue
		}
		allowed := opts.Epsilon - currErr

		e := tally[t]
		e.attempt()
		// The clock reads exist only when a histogram wants them; they
		// consume no randomness either way, so instrumented and plain runs
		// stay bit-identical.
		var latH *obs.Histogram
		var t0 time.Time
		if m != nil {
			if t.Slow() {
				latH = synthH
			} else {
				latH = propH
			}
			t0 = time.Now()
		}
		eps, ok := applyAny(t, allowed, rng)
		if latH != nil {
			latH.ObserveSince(t0)
		}
		if !ok {
			continue
		}
		candCost := opts.Cost(curr)
		if accept(candCost) {
			eng.Commit()
			currCost = candCost
			currErr += eps
			res.Accepted++
			e.accept()
			epsG.Set(currErr)
			improve()
		} else {
			eng.Rollback(0)
			e.reject()
		}
	}

	res.Best = best
	res.BestError = bestErr
	res.Elapsed = time.Since(start)
	finish()
	emit(nil)
	return res
}
