package opt

import (
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/partition"
)

// AutoWorkers is the default portfolio size when the caller does not pick
// one: one worker per available CPU, capped at 8 (beyond that exchange
// contention outweighs the extra diversity).
func AutoWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// upstreamSyncDefault bounds how often an idle coordinator polls its
// upstream exchanger: local improvements are pushed immediately, but a
// coordinator whose workers are stuck still checks for remote progress at
// this period instead of on every worker exchange (which would hammer a
// networked upstream with no-op requests). Consecutive unproductive syncs
// back off exponentially up to upstreamSyncMaxBackoff times the base
// period, so a long-idle session converges to a slow keepalive instead of
// a fixed-rate poll; any productive sync — a pushed local improvement or
// an adopted remote one — resets the period.
const (
	upstreamSyncDefault    = 100 * time.Millisecond
	upstreamSyncMaxBackoff = 16
)

// coordinator is the portfolio's shared best-so-far store. Workers publish
// their best solution at exchange points and adopt the global best when it
// beats their current search point. Circuits handed to the coordinator are
// never mutated afterwards: each worker's search point lives inside its own
// rewrite.Engine, and everything a worker publishes is a snapshot (while
// adopted circuits are cloned back into the engine), so sharing pointers
// across workers is safe.
//
// When an upstream Exchanger is set (the networked guoqd coordinator of
// internal/dist), the coordinator forms a two-level hierarchy: workers
// exchange with the in-process coordinator at memory speed, and the
// coordinator relays to the upstream — pushing local improvements
// immediately and otherwise polling at most every syncWait.
type coordinator struct {
	mu      sync.Mutex
	cost    Cost             // guarded by mu
	best    *circuit.Circuit // guarded by mu
	bestErr float64          // guarded by mu
	bestVal float64          // guarded by mu

	upstream Exchanger
	lastSync time.Time     // guarded by mu
	syncBase time.Duration // configured idle-poll period
	syncWait time.Duration // current period, grown by unproductive syncs; guarded by mu

	start     time.Time
	onImprove func(elapsed time.Duration, best *circuit.Circuit)
	// cbMu serializes onImprove callbacks. The callback runs outside mu so
	// a slow consumer (a terminal write, a network relay) never stalls the
	// workers' exchange path; consecutive improvements may therefore be
	// observed slightly out of order under heavy contention.
	cbMu sync.Mutex
}

func newCoordinator(c *circuit.Circuit, cost Cost, onImprove func(time.Duration, *circuit.Circuit), upstream Exchanger, syncEvery time.Duration) *coordinator {
	return &coordinator{
		cost:      cost,
		best:      c,
		bestErr:   0,
		bestVal:   cost(c),
		upstream:  upstream,
		syncBase:  syncEvery,
		syncWait:  syncEvery,
		start:     time.Now(),
		onImprove: onImprove,
	}
}

// Exchange implements Exchanger: record the worker's best, relay to the
// upstream coordinator when one is configured, and return the global best
// when it is strictly better than what the worker has.
func (co *coordinator) Exchange(best *circuit.Circuit, bestErr, bestCost float64) (*circuit.Circuit, float64, bool) {
	co.mu.Lock()
	improved := false
	if bestCost < co.bestVal {
		co.best, co.bestErr, co.bestVal = best, bestErr, bestCost
		improved = true
	}
	sync := co.upstream != nil && (improved || time.Since(co.lastSync) >= co.syncWait)
	if sync {
		co.lastSync = time.Now()
	}
	locBest, locErr, locVal := co.best, co.bestErr, co.bestVal
	co.mu.Unlock()

	if improved {
		co.notify(locBest)
	}
	if sync {
		// A sync is productive when it moves information either way: we
		// pushed a fresh local improvement, or we adopted a remote one.
		// Productive syncs reset the idle-poll period; unproductive ones
		// back it off exponentially (capped), so a stuck session stops
		// hammering a networked upstream with no-op requests.
		productive := improved
		if up, upErr, ok := co.upstream.Exchange(locBest, locErr, locVal); ok {
			if upVal := co.cost(up); upVal < locVal {
				co.mu.Lock()
				if upVal < co.bestVal {
					co.best, co.bestErr, co.bestVal = up, upErr, upVal
				}
				locBest, locErr, locVal = co.best, co.bestErr, co.bestVal
				co.mu.Unlock()
				co.notify(locBest)
				productive = true
			}
		}
		co.mu.Lock()
		if productive {
			co.syncWait = co.syncBase
		} else if co.syncWait < upstreamSyncMaxBackoff*co.syncBase {
			co.syncWait *= 2
			if co.syncWait > upstreamSyncMaxBackoff*co.syncBase {
				co.syncWait = upstreamSyncMaxBackoff * co.syncBase
			}
		}
		co.mu.Unlock()
	}

	if locVal < bestCost {
		return locBest, locErr, true
	}
	return nil, 0, false
}

// notify delivers an onImprove callback outside the exchange lock.
func (co *coordinator) notify(best *circuit.Circuit) {
	if co.onImprove == nil {
		return
	}
	co.cbMu.Lock()
	defer co.cbMu.Unlock()
	co.onImprove(time.Since(co.start), best)
}

// Portfolio runs `workers` concurrent GUOQ searches over the same circuit
// with diversified seeds and temperatures, periodically exchanging the
// best-so-far solution through a coordinator (POPQC-style parallel
// portfolio). Every worker's solution is individually ε-bounded, and
// migration transfers the solution together with its accumulated error
// bound, so the returned BestError ≤ opts.Epsilon holds exactly as in the
// single-worker case. workers ≤ 1 degrades to the classic loop.
//
// When opts.Exchanger is set it becomes the coordinator's upstream: the
// portfolio joins a multi-machine search (internal/dist), relaying its
// local best outward and adopting remote improvements, while workers keep
// exchanging in-process.
//
// The portfolio is not deterministic across runs (exchange points depend
// on wall-clock interleaving); use the synchronous single-worker mode when
// byte-identical reproducibility matters.
func Portfolio(c *circuit.Circuit, ts []Transformation, opts Options, workers int) *Result {
	if workers <= 1 {
		return GUOQ(c, ts, opts)
	}
	if opts.Cost == nil {
		opts.Cost = TwoQubitCost()
	}
	start := time.Now()
	// One resynthesis pool shared by every member: each still holds one
	// call in flight (§5.3), but the pool bounds how many run at once and
	// steals work across members, instead of each member creating a
	// one-worker pool of its own. A caller-supplied pool is reused as-is.
	if opts.Async && opts.Pool == nil && len(FilterSlow(ts)) > 0 && len(FilterFast(ts)) > 0 {
		pool := NewResynthPoolMetrics(workers, opts.Metrics)
		defer pool.Close()
		opts.Pool = pool
	}
	co := newCoordinator(c, opts.Cost, opts.OnImprove, opts.Exchanger, upstreamSyncDefault)

	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wOpts := opts
		wOpts.Seed = opts.Seed + int64(w)*0x9E3779B9
		wOpts.Temperature *= tempRung(w)
		wOpts.Exchanger = nil
		if opts.ExchangeEvery >= 0 {
			wOpts.Exchanger = co
		}
		wOpts.OnImprove = nil // routed through the coordinator
		if opts.OnEvent != nil {
			// Tag every event with its worker index; the consumer aggregates
			// the latest event per worker. Improvement events keep their Best
			// snapshot — a worker-local best is still a valid whole-circuit
			// solution with its own ε bound.
			ev, wid := opts.OnEvent, w
			wOpts.OnEvent = func(e Event) {
				e.Worker = wid
				ev(e)
			}
		}
		wg.Add(1)
		go func(w int, o Options) {
			defer wg.Done()
			results[w] = GUOQ(c, ts, o)
		}(w, wOpts)
	}
	wg.Wait()

	merged := &Result{Best: c, BestError: 0}
	bestCost := opts.Cost(c)
	for _, r := range results {
		merged.Iters += r.Iters
		merged.Accepted += r.Accepted
		merged.Migrations += r.Migrations
		merged.MergeRules(r)
		cost := opts.Cost(r.Best)
		if cost < bestCost || (cost == bestCost && r.BestError < merged.BestError) {
			merged.Best, merged.BestError, bestCost = r.Best, r.BestError, cost
		}
	}
	// Workers only publish at exchange points, so improvements found after
	// a worker's last poll reach the merged result but not the coordinator
	// (or its upstream); publish the final best so the OnImprove series and
	// the remote session both end at Result.Best.
	if adopt, adoptErr, ok := co.Exchange(merged.Best, merged.BestError, bestCost); ok {
		// A remote peer may still be ahead of everything this portfolio
		// found; returning its solution keeps the multi-machine contract
		// "every participant ends at the global best".
		if cost := opts.Cost(adopt); cost < bestCost {
			merged.Best, merged.BestError = adopt, adoptErr
			merged.Migrations++
		}
	}
	merged.Elapsed = time.Since(start)
	return merged
}

// tempRung returns worker w's temperature multiplier: worker 0 keeps the
// caller's configuration, odd workers explore (2^-1, 2^-2, …: accepting
// more uphill moves), even workers exploit (2^1, 2^2, …: stricter). The
// first seven rungs reproduce the historical fixed ladder exactly; beyond
// that the progression continues instead of wrapping — the old table's
// trailing rung silently repeated worker 0's multiplier for the eighth
// worker and then cycled, so large portfolios ran duplicate
// configurations.
func tempRung(w int) float64 {
	if w <= 0 {
		return 1
	}
	if w%2 == 1 {
		return math.Exp2(-float64((w + 1) / 2))
	}
	return math.Exp2(float64(w / 2))
}

// minWindowGates is the smallest time window worth optimizing on its own;
// slimmer windows leave too little context for rules or resynthesis.
const minWindowGates = 24

// PartitionParallel splits the circuit into up to `workers` disjoint time
// windows (internal/partition), optimizes every window concurrently with
// its own GUOQ search, and stitches the results back in order. The global
// ε budget is divided evenly across windows and the achieved per-window
// errors are summed into BestError, which is sound by the composition
// argument of Thm 4.2: replacing disjoint windows with ε_i-equivalent
// subcircuits yields a circuit within Σ ε_i of the original.
//
// Circuits too small to window (or workers ≤ 1) fall back to a portfolio
// run, so callers can treat this as the "large circuit" strategy without
// pre-checking sizes.
func PartitionParallel(c *circuit.Circuit, ts []Transformation, opts Options, workers int) *Result {
	if opts.Cost == nil {
		opts.Cost = TwoQubitCost()
	}
	windows := partition.TimeWindows(c, workers, minWindowGates)
	if workers <= 1 || windows == nil {
		return Portfolio(c, ts, opts, workers)
	}
	start := time.Now()
	// Window workers share one resynthesis pool, exactly as in Portfolio.
	if opts.Async && opts.Pool == nil && len(FilterSlow(ts)) > 0 && len(FilterFast(ts)) > 0 {
		pool := NewResynthPoolMetrics(workers, opts.Metrics)
		defer pool.Close()
		opts.Pool = pool
	}
	epsPer := opts.Epsilon / float64(len(windows))

	type windowResult struct {
		res *Result
		sub *circuit.Circuit // the window's input, for the never-worse guard
	}
	outs := make([]windowResult, len(windows))
	var wg sync.WaitGroup
	for i, win := range windows {
		sub := win.Extract(c)
		wOpts := opts
		wOpts.Epsilon = epsPer
		wOpts.Seed = opts.Seed + int64(i)*0x9E3779B9
		wOpts.Exchanger = nil
		wOpts.OnImprove = nil // per-window improvements are not global ones
		if opts.OnEvent != nil {
			// Window workers report their counters for liveness, but a
			// window-local circuit is not a whole-circuit solution: strip
			// the snapshot so consumers never adopt it as a global best.
			ev, wid := opts.OnEvent, i
			wOpts.OnEvent = func(e Event) {
				e.Worker = wid
				e.Best = nil
				ev(e)
			}
		}
		wg.Add(1)
		go func(i int, sub *circuit.Circuit, o Options) {
			defer wg.Done()
			outs[i] = windowResult{res: GUOQ(sub, ts, o), sub: sub}
		}(i, sub, wOpts)
	}
	wg.Wait()

	res := &Result{}
	stitched := c
	// Replace back-to-front so earlier gate indices stay valid.
	for i := len(windows) - 1; i >= 0; i-- {
		wr := outs[i]
		res.Iters += wr.res.Iters
		res.Accepted += wr.res.Accepted
		res.MergeRules(wr.res)
		if opts.Cost(wr.res.Best) >= opts.Cost(wr.sub) {
			continue // no win: keep the window's original gates, spend no ε
		}
		stitched = windows[i].Replace(stitched, wr.res.Best)
		res.BestError += wr.res.BestError
	}
	res.Best = stitched
	if opts.Cost(stitched) > opts.Cost(c) {
		// The per-window costs are additive for every objective we ship, so
		// this should not trigger; the guard keeps the "never worse"
		// contract under exotic caller-supplied costs.
		res.Best, res.BestError = c, 0
	}
	// Window workers search their shards independently, but the stitched
	// whole-circuit result (summed bound ≤ opts.Epsilon) is a valid
	// session solution: publish it to a distributed coordinator and adopt
	// a remote solution that is strictly ahead, so -partition runs
	// participate in a multi-machine search instead of silently dropping
	// the Exchanger.
	if opts.Exchanger != nil {
		bestCost := opts.Cost(res.Best)
		if adopt, adoptErr, ok := opts.Exchanger.Exchange(res.Best, res.BestError, bestCost); ok {
			if opts.Cost(adopt) < bestCost {
				res.Best, res.BestError = adopt, adoptErr
				res.Migrations++
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res
}
