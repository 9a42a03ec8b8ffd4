package opt

import (
	"context"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
)

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

// runAsyncJob executes one slow transformation off the search loop. It
// prefers the cancellation-aware path so stop() returns as soon as the
// synthesizer notices the context, instead of after a full synthesis
// deadline.
func runAsyncJob(job asyncJob) asyncResult {
	t0 := time.Now()
	o, eps, ok := applyFlat(job.ctx, job.t, job.c, job.allowed, rand.New(rand.NewSource(job.seed)))
	return asyncResult{t: job.t, out: o, baseErr: job.baseErr, eps: eps, ok: ok, dur: time.Since(t0)}
}

// asyncWorker is one search's background synthesis call (§5.3). It holds
// at most one job in flight, each on a goroutine of its own: launch while
// busy is a no-op, poll never blocks, and stop drains the in-flight job
// before returning.
type asyncWorker struct {
	out  chan asyncResult
	busy bool
}

func newAsyncWorker() *asyncWorker {
	return &asyncWorker{out: make(chan asyncResult, 1)}
}

func (w *asyncWorker) launch(ctx context.Context, t Transformation, circ *circuit.Circuit, baseErr, allowed float64, seed int64) {
	if w.busy {
		return
	}
	w.busy = true
	job := asyncJob{ctx: ctx, t: t, c: circ, baseErr: baseErr, allowed: allowed, seed: seed}
	// The result channel has capacity 1 and the worker holds one job at a
	// time, so the send never blocks the job's goroutine.
	go func() { w.out <- runAsyncJob(job) }()
}

func (w *asyncWorker) poll() (asyncResult, bool) {
	select {
	case r := <-w.out:
		w.busy = false
		return r, true
	default:
		return asyncResult{}, false
	}
}

func (w *asyncWorker) inFlight() bool { return w.busy }

// stop drains the in-flight job, if any, so no job outlives its search.
func (w *asyncWorker) stop() {
	if w.busy {
		<-w.out
		w.busy = false
	}
}
