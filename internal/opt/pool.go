package opt

import (
	"context"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/synth"
)

// ResynthPool is a pool of resynthesis workers for concurrent searches. A
// ResynthPool caps the number of simultaneous numerical searches at its
// size while work-stealing across searches: every search still holds at
// most one resynthesis in flight (the §5.3 discipline), but a free pool
// worker picks up the next queued job from whichever search produced it.
// Wire one through Options.Pool; the same pool may back any number of
// searches and must outlive them all (Close only after every search using
// it has returned).
type ResynthPool struct {
	pool *synth.Pool
}

// NewResynthPool starts a pool with size workers (at least one).
func NewResynthPool(size int) *ResynthPool {
	return NewResynthPoolMetrics(size, nil)
}

// NewResynthPoolMetrics starts a pool whose queue depth, task count,
// steals, and task latency report into m's pool handles; nil m (or nil
// handles) disables instrumentation.
func NewResynthPoolMetrics(size int, m *Metrics) *ResynthPool {
	var pm *synth.PoolMetrics
	if m != nil {
		pm = &synth.PoolMetrics{
			QueueDepth:  m.PoolQueueDepth,
			Tasks:       m.PoolTasks,
			Steals:      m.PoolSteals,
			TaskSeconds: m.PoolTaskSeconds,
		}
	}
	return &ResynthPool{pool: synth.NewPoolMetrics(size, pm)}
}

// Close drains queued jobs and stops the workers. Callers must first stop
// every search using the pool (their deferred poolClient.stop() drains
// each search's in-flight job).
func (p *ResynthPool) Close() { p.pool.Close() }

// newClient returns this search's handle on the pool. The search holds at
// most one job in flight: launch while busy is a no-op, poll never blocks,
// and stop drains the in-flight job before returning. Results come back
// over a dedicated channel.
func (p *ResynthPool) newClient() *poolClient {
	return &poolClient{p: p, out: make(chan asyncResult, 1)}
}

type asyncJob struct {
	ctx     context.Context // nil for uncancellable runs
	t       Transformation
	c       *circuit.Circuit
	baseErr float64 // accumulated error of c at launch time
	allowed float64
	seed    int64
}

type asyncResult struct {
	t       Transformation // the launched transformation, for attribution
	out     *circuit.Circuit
	baseErr float64
	eps     float64
	ok      bool
	dur     time.Duration // wall time of the job where it ran
}

// runAsyncJob executes one slow transformation on a pool worker. It
// prefers the cancellation-aware path so stop() returns as soon as the
// synthesizer notices the context, instead of after a full synthesis
// deadline.
func runAsyncJob(job asyncJob) asyncResult {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(job.seed))
	var (
		o   *circuit.Circuit
		eps float64
		ok  bool
	)
	if ca, cok := job.t.(ContextApplier); cok && job.ctx != nil {
		o, eps, ok = ca.ApplyContext(job.ctx, job.c, job.allowed, rng)
	} else {
		o, eps, ok = job.t.Apply(job.c, job.allowed, rng)
	}
	return asyncResult{t: job.t, out: o, baseErr: job.baseErr, eps: eps, ok: ok, dur: time.Since(t0)}
}

type poolClient struct {
	p    *ResynthPool
	out  chan asyncResult
	busy bool
}

func (c *poolClient) launch(ctx context.Context, t Transformation, circ *circuit.Circuit, baseErr, allowed float64, seed int64) {
	if c.busy {
		return
	}
	job := asyncJob{ctx: ctx, t: t, c: circ, baseErr: baseErr, allowed: allowed, seed: seed}
	// The result channel has capacity 1 and the client holds one job at a
	// time, so the send never blocks a pool worker. Submit fails only when
	// the pool was closed early; the client then simply stays idle.
	if c.p.pool.Submit(func() { c.out <- runAsyncJob(job) }) {
		c.busy = true
	}
}

func (c *poolClient) poll() (asyncResult, bool) {
	select {
	case r := <-c.out:
		c.busy = false
		return r, true
	default:
		return asyncResult{}, false
	}
}

func (c *poolClient) inFlight() bool { return c.busy }

// stop drains the in-flight job, if any. Close accepts queued jobs, so a
// submitted job always eventually delivers its result.
func (c *poolClient) stop() {
	if c.busy {
		<-c.out
		c.busy = false
	}
}
