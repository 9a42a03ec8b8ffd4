// Package popt implements parallel local fixpoint optimization — the
// "huge circuit" strategy of POPQC (Liu et al.) argued for by Arora et al.:
// a global annealing search cannot hold a million-gate circuit, but bounded
// GUOQ searches on sliding windows can, and iterating window rounds to a
// fixpoint recovers most of the global search's quality. Each round
// partitions the current circuit into disjoint windows
// (partition.SizedWindows), optimizes every window concurrently with its
// own bounded GUOQ search, and stitches the improved windows back in one
// transaction (rewrite.Engine.ReplaceRegions), committing only when the
// whole-circuit cost strictly drops. Alternate rounds shift the window
// boundaries by half a window so the seams left by one round fall in the
// interior of the next round's windows. The loop stops after two
// consecutive rounds without improvement — no window can improve at either
// boundary phase — or when the budget runs out.
//
// The ε accounting composes by Thm 4.2: a round with remaining budget R and
// W windows grants each window R/W, only adopted windows are charged their
// achieved (not granted) error, and at most W windows are adopted, so every
// round spends at most R and the summed BestError never exceeds the global
// Epsilon.
package popt

import (
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/partition"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// Options configures a fixpoint run. Search carries the per-window GUOQ
// configuration and the global budgets: Search.Epsilon is the whole-run
// error budget, Search.TimeBudget the whole-run wall clock, and
// Search.Context cancels between and inside rounds. Search.Seed makes
// synchronous runs (Search.Async false, no TimeBudget) deterministic:
// window seeds are derived from (seed, round, window).
type Options struct {
	// Workers bounds how many window searches run concurrently (≤0 means
	// opt.AutoWorkers). It also sizes the shared resynthesis pool in Async
	// mode.
	Workers int
	// WindowGates is the target gates per window (≤0 means 256) — large
	// enough for rules and resynthesis to find context, small enough that a
	// bounded search converges within RoundIters.
	WindowGates int
	// MinWindowGates is the advisory floor forwarded to
	// partition.SizedWindows (≤0 means 24).
	MinWindowGates int
	// RoundIters bounds each window search's iterations per round (≤0
	// means 2048) — the "bounded local search" of POPQC's fixpoint
	// argument; unbounded window searches would just be slow global ones.
	RoundIters int
	// MaxRounds bounds the number of rounds (0 = until convergence or
	// budget exhaustion).
	MaxRounds int
	// Search is the per-window GUOQ configuration plus global budgets (see
	// the struct comment).
	Search opt.Options
}

// Fixpoint optimizes c by iterated parallel window optimization. Circuits
// with no room for two windows fall back to a portfolio run, so callers can
// treat Fixpoint as the large-circuit strategy without pre-checking sizes.
// The result is never worse than the input and its BestError is within
// Search.Epsilon. Search.MaxIters, when set, bounds the total iterations
// summed across all window searches (checked between rounds, so a run may
// overshoot by at most one round). Search.Exchanger, when set, receives
// the stitched result when the run ends (window searches do not exchange).
func Fixpoint(c *circuit.Circuit, ts []opt.Transformation, o Options) *opt.Result {
	so := o.Search
	if so.Cost == nil {
		so.Cost = opt.TwoQubitCost()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = opt.AutoWorkers()
	}
	window := o.WindowGates
	if window <= 0 {
		window = 256
	}
	minWin := o.MinWindowGates
	if minWin <= 0 {
		minWin = 24
	}
	roundIters := o.RoundIters
	if roundIters <= 0 {
		roundIters = 2048
	}

	if partition.SizedWindows(c, window, minWin, 0) == nil {
		return opt.Portfolio(c, ts, so, workers)
	}

	start := time.Now()
	var deadline time.Time
	if so.TimeBudget > 0 {
		deadline = start.Add(so.TimeBudget)
	}
	done := so.Context
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done.Done():
			return true
		default:
			return false
		}
	}

	// One shared resynthesis pool for every window search of every round:
	// without it, W concurrent windows in Async mode would each create a
	// one-worker pool of their own and admit W simultaneous numerical
	// searches; the pool work-steals across windows and caps concurrency at
	// the worker count. A caller-supplied pool (a portfolio sharing with a
	// fixpoint run) is reused as-is.
	pool := so.Pool
	var hasFast, hasSlow bool
	for _, t := range ts {
		if t.Slow() {
			hasSlow = true
		} else {
			hasFast = true
		}
	}
	if so.Async && hasFast && hasSlow && pool == nil {
		pool = opt.NewResynthPoolMetrics(workers, so.Metrics)
		defer pool.Close()
	}

	eng := rewrite.NewEngine(c.Clone())
	curr := eng.Circuit() // stable pointer to the engine's live circuit
	currCost := so.Cost(curr)
	totalErr := 0.0
	res := &opt.Result{}

	// emit publishes one per-round progress event as Worker 0: counters are
	// cumulative across all rounds' window searches, and Best carries a
	// snapshot only on rounds that improved the stitched circuit — exactly
	// the per-worker contract the Session aggregator expects, so fixpoint
	// convergence is observable round by round through Session.Events.
	emit := func(best *circuit.Circuit) {
		if so.OnEvent == nil {
			return
		}
		so.OnEvent(opt.Event{
			Worker:   0,
			Elapsed:  time.Since(start),
			Iters:    res.Iters,
			Accepted: res.Accepted,
			BestCost: currCost,
			BestErr:  totalErr,
			Best:     best,
		})
	}

	dry := 0
	for round := 0; dry < 2; round++ {
		if o.MaxRounds > 0 && round >= o.MaxRounds {
			break
		}
		if so.MaxIters > 0 && res.Iters >= so.MaxIters {
			break
		}
		if so.TimeBudget > 0 && !time.Now().Before(deadline) {
			break
		}
		if cancelled() {
			break
		}
		// Alternate the boundary phase so last round's seams are interior.
		offset := 0
		if round%2 == 1 {
			offset = window / 2
		}
		wins := partition.SizedWindows(curr, window, minWin, offset)
		if wins == nil {
			break // the circuit shrank below two windows
		}
		if m := so.Metrics; m != nil {
			m.FixpointWindows.Add(int64(len(wins)))
		}
		remaining := so.Epsilon - totalErr
		if remaining < 0 {
			remaining = 0
		}
		epsPer := remaining / float64(len(wins))

		type winOut struct {
			out  *opt.Result
			base float64 // cost of the window's input
		}
		outs := make([]winOut, len(wins))
		sem := make(chan struct{}, workers)
		doneCh := make(chan struct{})
		for i, w := range wins {
			sub := w.Extract(curr)
			wOpts := so
			wOpts.Epsilon = epsPer
			wOpts.Seed = so.Seed + int64(round)*0x3779B97F4A7C15 + int64(i)*0x9E3779B9
			wOpts.MaxIters = roundIters
			wOpts.Exchanger = nil // a window is not a whole-circuit solution
			wOpts.OnImprove = nil // a window-local best is not a global one
			wOpts.OnEvent = nil   // rounds report as one worker, see emit
			wOpts.Pool = pool
			go func(i int, sub *circuit.Circuit, wo opt.Options) {
				sem <- struct{}{}
				defer func() { <-sem; doneCh <- struct{}{} }()
				if so.TimeBudget > 0 {
					// Measured after the semaphore: a window queued behind
					// the others gets what is left of the run, not a fresh
					// copy of the remainder at spawn time.
					wo.TimeBudget = max(time.Until(deadline), time.Millisecond)
				}
				outs[i] = winOut{out: opt.GUOQ(sub, ts, wo), base: wo.Cost(sub)}
			}(i, sub, wOpts)
		}
		for range wins {
			<-doneCh
		}

		// Stitch: adopt every window whose search found a strictly cheaper
		// subcircuit, all in one logged transaction, and commit only when
		// the whole circuit got strictly cheaper (for the additive shipped
		// objectives any adopted window guarantees that; the guard keeps
		// exotic caller costs sound).
		var regs []*circuit.Region
		var repls []*circuit.Circuit
		roundErr := 0.0
		for i, w := range wins {
			wo := outs[i]
			res.Iters += wo.out.Iters
			res.Accepted += wo.out.Accepted
			res.MergeRules(wo.out)
			if so.Cost(wo.out.Best) < wo.base {
				regs = append(regs, w)
				repls = append(repls, wo.out.Best)
				roundErr += wo.out.BestError
			}
		}
		improved := false
		if len(regs) > 0 {
			mark := eng.Mark()
			eng.ReplaceRegions(regs, repls)
			if cand := so.Cost(curr); cand < currCost {
				eng.Commit()
				currCost = cand
				totalErr += roundErr
				improved = true
			} else {
				eng.Rollback(mark)
			}
		}
		if improved {
			dry = 0
			if m := so.Metrics; m != nil {
				m.FixpointAdopted.Add(int64(len(regs)))
				m.BestCost.Set(currCost)
				m.EpsilonSpent.Set(totalErr)
			}
			best := eng.Snapshot()
			if so.OnImprove != nil {
				so.OnImprove(time.Since(start), best)
			}
			emit(best)
		} else {
			dry++
			if m := so.Metrics; m != nil {
				m.FixpointDryRounds.Inc()
			}
			emit(nil)
		}
	}

	// The stitch engine's cache counters join the windows' own (each
	// window search flushed its private engine when it returned).
	so.Metrics.AddEngineStats(eng.Stats())
	res.Best = eng.Snapshot()
	res.BestError = totalErr
	if so.Cost(res.Best) > so.Cost(c) {
		// Unreachable for additive costs (commits are strictly improving);
		// keeps the never-worse contract under exotic caller costs.
		res.Best, res.BestError = c, 0
	}
	// The stitched circuit (summed bound ≤ Epsilon) is a valid session
	// solution: publish it to a distributed coordinator and adopt a remote
	// solution that is strictly ahead, with its own bound, as Portfolio
	// and PartitionParallel do.
	if so.Exchanger != nil {
		bestCost := so.Cost(res.Best)
		if adopt, adoptErr, ok := so.Exchanger.Exchange(res.Best, res.BestError, bestCost); ok {
			if cost := so.Cost(adopt); cost < bestCost {
				res.Best, res.BestError = adopt, adoptErr
				res.Migrations++
				currCost, totalErr = cost, adoptErr
			}
		}
	}
	res.Elapsed = time.Since(start)
	emit(nil)
	return res
}
