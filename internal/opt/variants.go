package opt

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// Q2/Q3 search-strategy variants. All consume the same transformation sets
// and cost functions as GUOQ so the comparisons isolate the search strategy.

// GUOQSeq runs the coarse interleaving of Q3: the first half of the time
// to the context's deadline with one transformation class only, then the
// rest with the other, starting from the first phase's best. Without a
// deadline each phase runs until MaxIters or cancellation.
func GUOQSeq(c *circuit.Circuit, ts []Transformation, opts Options, rewriteFirst bool) *Result {
	first, second := FilterFast(ts), FilterSlow(ts)
	if !rewriteFirst {
		first, second = second, first
	}
	o1 := opts
	if opts.Context != nil {
		if dl, ok := opts.Context.Deadline(); ok {
			ctx, cancel := context.WithDeadline(opts.Context, time.Now().Add(time.Until(dl)/2))
			defer cancel()
			o1.Context = ctx
		}
	}
	r1 := GUOQ(c, first, o1)
	o2 := opts
	o2.Seed = opts.Seed + 1
	// The second phase inherits the first phase's accumulated error.
	o2.Epsilon = opts.Epsilon - r1.BestError
	r2 := GUOQ(r1.Best, second, o2)
	r2.BestError += r1.BestError
	r2.Iters += r1.Iters
	r2.Accepted += r1.Accepted
	r2.Elapsed += r1.Elapsed
	return r2
}

// Beam is the MaxBeam-style instantiation of the framework (GUOQ-BEAM in
// Q3, after QUESO's search): a bounded priority queue of candidates; each
// step dequeues the best and enqueues the result of applying every
// transformation. As §6 discusses, the queue saturates with near-identical
// candidates and large circuits make it memory-heavy — which is the point
// of the comparison.
//
// One rewrite.Engine holds the dequeued candidate: each transformation is
// applied to it in place, its result fingerprinted (and snapshotted only
// when new), and the application rolled back, so the candidate's DAG is
// built once per dequeue rather than once per transformation, and a
// duplicate is never copied.
func Beam(c *circuit.Circuit, ts []Transformation, opts Options, width int) *Result {
	if opts.Cost == nil {
		opts.Cost = TwoQubitCost()
	}
	if width <= 0 {
		width = 32
	}
	start := time.Now()

	type cand struct {
		c    *circuit.Circuit
		err  float64
		cost float64
	}
	res := &Result{}
	seen := map[uint64]bool{}
	root := cand{c: c.Clone(), err: 0, cost: opts.Cost(c)}
	seen[fingerprint(c)] = true
	queue := []cand{root}
	best := root

	eng := rewrite.NewEngine(c)
	cancelled := opts.cancelled()
	rngSeed := opts.Seed
	for len(queue) > 0 {
		if opts.MaxIters > 0 && res.Iters >= opts.MaxIters {
			break
		}
		if cancelled() {
			break
		}
		cur := queue[0]
		queue = queue[1:]
		res.Iters++
		eng.Reset(cur.c)
		for _, t := range ts {
			if cur.err+t.Epsilon() > opts.Epsilon {
				continue
			}
			rngSeed++
			mark := eng.Mark()
			eps, ok := applyEngine(opts.Context, eng, t, opts.Epsilon-cur.err, newRng(rngSeed))
			if !ok {
				continue
			}
			fp := fingerprint(eng.Circuit())
			if seen[fp] {
				eng.Rollback(mark)
				continue
			}
			seen[fp] = true
			out := eng.Snapshot()
			eng.Rollback(mark)
			nc := cand{c: out, err: cur.err + eps, cost: opts.Cost(out)}
			res.Accepted++
			if nc.cost < best.cost {
				best = nc
			}
			queue = append(queue, nc)
			if cancelled() {
				break
			}
		}
		sort.Slice(queue, func(i, j int) bool { return queue[i].cost < queue[j].cost })
		if len(queue) > width {
			queue = queue[:width]
		}
	}
	res.Best = best.c
	res.BestError = best.err
	res.Elapsed = time.Since(start)
	return res
}

// fingerprint hashes a circuit's structure for beam-search deduplication.
func fingerprint(c *circuit.Circuit) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	mix(uint64(c.NumQubits))
	for _, g := range c.Gates {
		for _, b := range []byte(g.Name) {
			mix(uint64(b))
		}
		for _, q := range g.Qubits {
			mix(uint64(q + 1))
		}
		for _, p := range g.Params {
			mix(uint64(int64(p * 1e9)))
		}
	}
	return h
}

// newRng hands each transformation application an independent deterministic
// stream.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
