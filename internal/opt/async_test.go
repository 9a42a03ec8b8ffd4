package opt

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
)

// Many searches with a background worker each: every worker must get its
// own results back, the one-in-flight discipline must hold, and stop must
// drain cleanly.
func TestAsyncWorkerRoutesResultsPerSearch(t *testing.T) {
	const searches = 8
	const jobsPerSearch = 20
	var wg sync.WaitGroup
	for si := 0; si < searches; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			w := newAsyncWorker()
			defer w.stop()
			for j := 0; j < jobsPerSearch; j++ {
				// Tag each job with a search-unique error value and check it
				// round-trips: a cross-search delivery would surface as a
				// foreign tag.
				tag := float64(si*1000 + j)
				w.launch(nil, markerTransformation{}, nil, tag, 0, int64(j))
				if !w.inFlight() {
					t.Errorf("search %d: launch %d not in flight", si, j)
					return
				}
				// launch while busy must be a silent no-op.
				w.launch(nil, markerTransformation{}, nil, -1, 0, 0)
				r := awaitResult(w)
				if r.baseErr != tag {
					t.Errorf("search %d: got result tagged %v, want %v", si, r.baseErr, tag)
					return
				}
				if w.inFlight() {
					t.Errorf("search %d: still in flight after poll", si)
					return
				}
			}
		}(si)
	}
	wg.Wait()
}

// stubSlow is a controllable slow transformation for accounting tests.
type stubSlow struct{ eps float64 }

func (s stubSlow) Name() string     { return "stub-slow" }
func (s stubSlow) Epsilon() float64 { return s.eps }
func (s stubSlow) Slow() bool       { return true }
func (s stubSlow) Apply(c *circuit.Circuit, _ float64, _ *rand.Rand) (*circuit.Circuit, float64, bool) {
	return c.Clone(), s.eps, true
}

// A background job must report its result against the error base it was
// launched with: an exchange adoption can replace the loop's accumulated
// error while a job is in flight, and charging the job's eps against the
// adopted (smaller) base would understate the true bound and let the loop
// overspend the hard ε budget.
func TestAsyncWorkerCarriesErrorBase(t *testing.T) {
	w := newAsyncWorker()
	defer w.stop()
	w.launch(context.Background(), stubSlow{eps: 0.125}, circuit.New(1), 0.25, 0.5, 1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r, ready := w.poll(); ready {
			if !r.ok || r.baseErr != 0.25 || r.eps != 0.125 {
				t.Fatalf("result = {ok:%v baseErr:%g eps:%g}, want {true 0.25 0.125}", r.ok, r.baseErr, r.eps)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("async result never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitResult(w *asyncWorker) asyncResult {
	for {
		if r, ok := w.poll(); ok {
			return r
		}
		runtime.Gosched()
	}
}

// markerTransformation is an inert slow transformation whose Apply returns
// no result; worker tests only observe the echoed baseErr tag.
type markerTransformation struct{}

func (markerTransformation) Name() string     { return "marker" }
func (markerTransformation) Slow() bool       { return true }
func (markerTransformation) Epsilon() float64 { return 0 }
func (markerTransformation) Apply(c *circuit.Circuit, allowed float64, r *rand.Rand) (*circuit.Circuit, float64, bool) {
	return nil, 0, false
}
