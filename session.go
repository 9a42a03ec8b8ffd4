package guoq

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
)

// ProgressEvent is one record of a Session's Events stream: a cumulative
// snapshot of the search's statistics, aggregated across workers in
// parallel modes. Events are emitted on every improvement and periodically
// as heartbeats; records are dropped (never blocking the search) when the
// consumer falls behind, so treat each event as the latest state rather
// than a complete history — Best and Wait always have the current truth.
type ProgressEvent struct {
	// Elapsed is the time since Start.
	Elapsed time.Duration
	// Iters counts search-loop iterations across all workers.
	Iters int
	// Accepted counts accepted transformations; Rejected is the remainder
	// of Iters (rejected proposals and iterations where no transformation
	// applied).
	Accepted int
	Rejected int
	// AcceptanceRate is Accepted/Iters (0 before the first iteration).
	AcceptanceRate float64
	// BestCost is the current best solution's cost under the session's
	// objective; Error is its accumulated ε upper bound.
	BestCost float64
	Error    float64
	// Migrations counts solutions adopted from Options.Exchanger.
	Migrations int
	// ResynthInFlight is the number of asynchronous resynthesis calls
	// currently running across workers (at most one per worker).
	ResynthInFlight int
	// Improved marks events emitted because a new global best was found;
	// heartbeat events leave it false.
	Improved bool
	// Dropped is the cumulative number of progress events discarded so far
	// because the consumer lagged behind the stream's buffer. A reader that
	// sees Dropped grow between events knows its history has gaps (Best and
	// Wait always carry the current truth); 0 means the stream is complete
	// up to this event.
	Dropped int
}

// Session is a running optimization started with Start: a cancellable,
// observable handle on the anytime search. All methods are safe for
// concurrent use.
type Session struct {
	base   Result // input-side statistics, computed once at Start
	cost   opt.Cost
	model  gateset.FidelityModel
	cancel context.CancelFunc
	start  time.Time
	events chan ProgressEvent
	done   chan struct{}
	reg    *obs.Registry // the run's registry (caller's or private)

	// dropped counts progress events discarded because the consumer
	// lagged; the next delivered event reports the cumulative total, so
	// the loss is never silent. droppedC mirrors it into the registry.
	dropped  atomic.Int64
	droppedC *obs.Counter

	mu       sync.Mutex
	best     *Circuit          // guarded by mu
	bestErr  float64           // guarded by mu
	bestCost float64           // guarded by mu
	workers  map[int]opt.Event // latest event per worker, for aggregation; guarded by mu
	finalC   *Circuit          // guarded by mu
	finalRes *Result           // guarded by mu
}

// Start begins optimizing c under ctx and returns immediately with a
// Session handle. The search ends when ctx is cancelled, its deadline (or
// Options.Budget, which Start turns into a context timeout) expires, Stop
// is called, or Options.MaxIters is exhausted — in every case the session
// resolves to the best solution found, never worse than the input and
// ε-equivalent to it. A nil ctx is treated as context.Background(); with
// Budget 0 such a session runs until explicitly stopped.
func Start(ctx context.Context, c *Circuit, o Options) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gs, err := resolveTarget(o)
	if err != nil {
		return nil, err
	}
	if !gs.IsNative(c) {
		return nil, fmt.Errorf("guoq: input circuit is not native to %s (use Translate first)", gs.Name)
	}
	if o.Objective == "" && o.Cost == nil {
		o.Objective = DefaultObjective(gs.Name)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-8
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cost, objective, err := resolveCost(o, gs)
	if err != nil {
		return nil, err
	}
	// Compile registered and per-run transformation extensions against the
	// resolved target now — before any context or goroutine exists — so a
	// malformed extension (non-native rule replacement, nil synthesizer)
	// fails Start cleanly instead of being silently dropped mid-run.
	extras, err := compileExtensions(gs, o.Epsilon, o.Transformations)
	if err != nil {
		return nil, err
	}

	// Options.Budget is sugar for a context deadline: from here on ctx is
	// the run's one time bound, for the search loop and for the cap on each
	// synthesis call.
	var cancel context.CancelFunc
	if o.Budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Budget)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}

	// The session always has a registry: the caller's when supplied (so
	// several runs can aggregate into one scrape target), a private one
	// otherwise (so Session.Metrics works unconditionally).
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	model := gateset.ModelFor(gs)
	s := &Session{
		base: Result{
			GateSet:        gs.Name,
			Objective:      objective,
			Before:         c.Len(),
			TwoQubitBefore: c.TwoQubitCount(),
			TCountBefore:   c.TCount(),
			DepthBefore:    c.Depth(),
			FidelityBefore: model.CircuitFidelity(c),
		},
		cost:     cost,
		model:    model,
		cancel:   cancel,
		start:    time.Now(),
		events:   make(chan ProgressEvent, 64),
		done:     make(chan struct{}),
		best:     c,
		bestCost: cost(c),
		workers:  map[int]opt.Event{},
		reg:      reg,
		droppedC: reg.Counter("guoq_events_dropped_total", "Progress events dropped because the consumer lagged."),
	}

	runner := baselines.NewGUOQ(o.Epsilon)
	runner.Async = o.Async
	runner.Parallelism = o.Parallelism
	runner.Partition = o.PartitionParallel
	runner.Exchanger = o.Exchanger
	runner.MaxIters = o.MaxIters
	runner.OnEvent = s.onEvent
	runner.Metrics = opt.NewMetrics(reg)
	// With no extensions the runner keeps its nil registry — the default
	// portfolio, bit-identical to previous releases for seeded runs.
	if len(extras) > 0 {
		runner.Registry = opt.DefaultRegistry().With(opt.Static(extras...))
	}

	go func() {
		out, stats := runner.OptimizeStatsContext(ctx, c, gs, cost, o.Seed)
		res := s.resultFor(out, stats.BestError, stats.Iters, stats.Accepted, stats.Migrations, time.Since(s.start))
		res.Rules = publicRules(stats.Rules)
		s.mu.Lock()
		s.finalC, s.finalRes = out, res
		s.mu.Unlock()
		close(s.done)
		// All workers have joined: nothing can emit anymore.
		close(s.events)
		cancel() // release the Budget timer
	}()
	return s, nil
}

// onEvent aggregates worker progress into the session state and forwards a
// ProgressEvent to the Events stream (dropping it when the consumer lags —
// the search never blocks on observation).
func (s *Session) onEvent(e opt.Event) {
	// Score outside the lock: Cost may be arbitrary caller code (it must
	// not be able to deadlock against Best), and an expensive objective
	// must not serialize the other workers' events. e.Best is an immutable
	// snapshot and s.cost is set once in Start, so this is race-free.
	var candCost float64
	if e.Best != nil {
		candCost = s.cost(e.Best)
	}
	s.mu.Lock()
	s.workers[e.Worker] = e
	improved := false
	if e.Best != nil && candCost < s.bestCost {
		s.best, s.bestErr, s.bestCost = e.Best, e.BestErr, candCost
		improved = true
	}
	pe := ProgressEvent{
		Elapsed:  time.Since(s.start),
		BestCost: s.bestCost,
		Error:    s.bestErr,
		Improved: improved,
	}
	for _, w := range s.workers {
		pe.Iters += w.Iters
		pe.Accepted += w.Accepted
		pe.Migrations += w.Migrations
		pe.ResynthInFlight += w.ResynthInFlight
	}
	pe.Rejected = pe.Iters - pe.Accepted
	if pe.Iters > 0 {
		pe.AcceptanceRate = float64(pe.Accepted) / float64(pe.Iters)
	}
	s.mu.Unlock()
	// Report any loss so far on this event; if this one does not fit
	// either, count it so the next delivered event carries the total.
	pe.Dropped = int(s.dropped.Load())
	select {
	case s.events <- pe:
	default: // consumer lagging: drop; Best()/Wait() carry the state
		s.dropped.Add(1)
		s.droppedC.Inc()
	}
}

// resultFor builds a full Result for a (possibly mid-run) solution. The
// input-side fields come from the precomputed base, so the cost of a call
// is proportional to the output circuit only — Best may be polled hot.
func (s *Session) resultFor(out *Circuit, errBound float64, iters, accepted, migrations int, elapsed time.Duration) *Result {
	r := s.base
	r.After = out.Len()
	r.TwoQubitAfter = out.TwoQubitCount()
	r.TCountAfter = out.TCount()
	r.DepthAfter = out.Depth()
	r.FidelityAfter = s.model.CircuitFidelity(out)
	r.Error = errBound
	r.Iters = iters
	r.Accepted = accepted
	r.Migrations = migrations
	r.Elapsed = elapsed
	return &r
}

// Best returns an anytime snapshot: the best circuit found so far with a
// Result computed against it, valid and ε-bounded at any moment — before
// the first improvement it is the input itself with zero error. Safe to
// call concurrently with the running search; the returned circuit is a
// snapshot that the optimizer will never mutate (treat it as read-only).
// Once the session has finished, Best returns exactly what Wait returns.
func (s *Session) Best() (*Circuit, *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalRes != nil {
		return s.finalC, s.finalRes
	}
	var iters, accepted, migrations int
	for _, w := range s.workers {
		iters += w.Iters
		accepted += w.Accepted
		migrations += w.Migrations
	}
	return s.best, s.resultFor(s.best, s.bestErr, iters, accepted, migrations, time.Since(s.start))
}

// Wait blocks until the session finishes (context cancelled, deadline or
// Budget expired, Stop called, or MaxIters exhausted) and returns the
// final circuit with its statistics. Cancellation is a normal anytime
// outcome, not a failure: a cancelled session still returns a valid,
// never-worse, ε-bounded circuit and a nil error. Wait may be called any
// number of times from any goroutine.
func (s *Session) Wait() (*Circuit, *Result, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finalC, s.finalRes, nil
}

// Stop cancels the session and waits for the final best-so-far: shorthand
// for cancelling the context passed to Start followed by Wait.
func (s *Session) Stop() (*Circuit, *Result, error) {
	s.cancel()
	return s.Wait()
}

// Events returns the session's progress stream. The channel is closed when
// the session finishes, so ranging over it terminates; a consumer that
// falls behind loses intermediate records (never the final state, which
// Wait carries). Multiple readers share one stream.
func (s *Session) Events() <-chan ProgressEvent {
	return s.events
}

// Done returns a channel closed when the session has finished; select on
// it to multiplex a session with other work without blocking in Wait.
func (s *Session) Done() <-chan struct{} {
	return s.done
}

// Metrics returns a point-in-time snapshot of the session's metric series
// as flat "name" or `name{label="value"}` keys — iterations, per-rule
// accepts and rejects, engine cache hits and misses, resynthesis queue
// depth, dropped progress events, and the rest. Histograms appear as their
// _sum and _count series. Safe to call at any moment, including after the
// session finished; when Options.Metrics supplied a shared registry the
// snapshot covers everything reported into it.
func (s *Session) Metrics() map[string]float64 {
	return s.reg.Snapshot()
}

// publicRules converts the internal attribution map into the public,
// deterministically ordered table: accepts descending, ties by name.
func publicRules(src map[string]*opt.RuleStats) []RuleStat {
	if len(src) == 0 {
		return nil
	}
	out := make([]RuleStat, 0, len(src))
	for name, st := range src {
		out = append(out, RuleStat{Name: name, Attempts: st.Attempts, Accepted: st.Accepted, Rejected: st.Rejected})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accepted != out[j].Accepted {
			return out[i].Accepted > out[j].Accepted
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Resume continues optimization from a previous run's output — a stopped
// session's Wait/Best result, or Optimize's. GUOQ's entire search state is
// the circuit plus its accumulated error bound, which is what makes
// stop/resume cheap: Resume starts a fresh session on out with o.Epsilon
// reduced by the error res already spent, so the bound composed across
// both runs still respects the original budget (Thm 4.2). A res whose
// budget is fully spent resumes as an (effectively) exact-only search. A
// nil res resumes with the full budget — equivalent to Start.
func Resume(ctx context.Context, out *Circuit, res *Result, o Options) (*Session, error) {
	if res != nil && res.Error > 0 {
		if o.Epsilon == 0 {
			o.Epsilon = 1e-8 // mirror Start's default before subtracting
		}
		o.Epsilon -= res.Error
		if o.Epsilon <= 0 {
			// Fully spent: keep a vanishing budget rather than 0, which
			// Start would re-default; admission then only ever lets
			// through (near-)exact resyntheses.
			o.Epsilon = math.SmallestNonzeroFloat64
		}
	}
	return Start(ctx, out, o)
}
