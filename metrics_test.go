package guoq

import (
	"context"
	"time"

	"testing"

	"github.com/guoq-dev/guoq/internal/opt"
)

// Event loss is never silent: when the consumer lags, the drop is counted
// and the next delivered event reports the cumulative total. White-box —
// the session is built by hand with a tiny buffer so the drop path is
// exercised deterministically instead of racing a real search.
func TestProgressEventDroppedAccounting(t *testing.T) {
	s := &Session{
		cost:    func(c *Circuit) float64 { return 0 },
		start:   time.Now(),
		events:  make(chan ProgressEvent, 1),
		workers: map[int]opt.Event{},
	}

	// First event fills the buffer; the next four overflow and must be
	// counted, not lost silently.
	for i := 0; i < 5; i++ {
		s.onEvent(opt.Event{Worker: 0, Iters: i + 1})
	}
	first := <-s.events
	if first.Dropped != 0 {
		t.Fatalf("first delivered event reports %d drops, want 0 (they happened after it)", first.Dropped)
	}

	// The buffer has room again: the next event must get through and carry
	// the cumulative loss.
	s.onEvent(opt.Event{Worker: 0, Iters: 6})
	next := <-s.events
	if next.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", next.Dropped)
	}

	// The counter is cumulative, never reset by a successful delivery.
	s.onEvent(opt.Event{Worker: 0, Iters: 7}) // delivered (buffer empty)
	s.onEvent(opt.Event{Worker: 0, Iters: 8}) // dropped (buffer full)
	if got := (<-s.events).Dropped; got != 4 {
		t.Fatalf("Dropped = %d after another delivery, want still 4", got)
	}
	s.onEvent(opt.Event{Worker: 0, Iters: 9})
	if got := (<-s.events).Dropped; got != 5 {
		t.Fatalf("Dropped = %d, want 5 after one more overflow", got)
	}
}

// ProgressEvent.ResynthInFlight counts the resynthesis calls in flight
// across workers: the sum of each worker's latest report, so a worker whose job
// finished stops counting and the other workers' jobs still do. White-box,
// like the drop accounting above.
func TestProgressEventResynthInFlight(t *testing.T) {
	s := &Session{
		cost:    func(c *Circuit) float64 { return 0 },
		start:   time.Now(),
		events:  make(chan ProgressEvent, 8),
		workers: map[int]opt.Event{},
	}
	for _, step := range []struct {
		ev   opt.Event
		want int
	}{
		{opt.Event{Worker: 0, ResynthInFlight: 1}, 1},
		{opt.Event{Worker: 1, ResynthInFlight: 1}, 2},
		{opt.Event{Worker: 1, ResynthInFlight: 1}, 2}, // a heartbeat repeats, not adds
		{opt.Event{Worker: 0, ResynthInFlight: 0}, 1},
		{opt.Event{Worker: 1, ResynthInFlight: 0}, 0},
	} {
		s.onEvent(step.ev)
		if got := (<-s.events).ResynthInFlight; got != step.want {
			t.Fatalf("after %+v: ResynthInFlight = %d, want %d", step.ev, got, step.want)
		}
	}
}

// A real session reports its metrics: the snapshot agrees with the final
// Result (iterations, per-rule accepts summing to Accepted), and the
// attribution table is sorted, consistent, and only on the final Result.
func TestSessionMetricsAndRuleAttribution(t *testing.T) {
	c := nativeRandom(t, 51, 40)
	reg := NewMetricsRegistry()
	sess, err := Start(context.Background(), c, Options{
		GateSet:  "nam",
		Seed:     8,
		MaxIters: 400,
		Budget:   10 * time.Minute, // MaxIters fires first
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}

	snap := sess.Metrics()
	if got := snap["guoq_iterations_total"]; got != float64(res.Iters) {
		t.Fatalf("guoq_iterations_total = %g, want %d", got, res.Iters)
	}
	if snap["guoq_engine_cache_hits_total"]+snap["guoq_engine_cache_misses_total"] == 0 {
		t.Fatal("engine cache counters never moved")
	}

	if len(res.Rules) == 0 {
		t.Fatal("final Result carries no attribution table")
	}
	sumAccepted, sumAttempts := 0, 0
	for i, r := range res.Rules {
		sumAccepted += r.Accepted
		sumAttempts += r.Attempts
		if r.Accepted+r.Rejected > r.Attempts {
			t.Fatalf("rule %q: accepted %d + rejected %d exceed attempts %d",
				r.Name, r.Accepted, r.Rejected, r.Attempts)
		}
		if i > 0 && res.Rules[i-1].Accepted < r.Accepted {
			t.Fatalf("Rules not sorted by accepts: %q (%d) after %q (%d)",
				r.Name, r.Accepted, res.Rules[i-1].Name, res.Rules[i-1].Accepted)
		}
	}
	if sumAccepted != res.Accepted {
		t.Fatalf("per-rule accepts sum to %d, Result.Accepted is %d", sumAccepted, res.Accepted)
	}
	if sumAttempts == 0 {
		t.Fatal("no attempts recorded across the portfolio")
	}

	// The shared registry mirrors the attribution.
	var snapAccepts float64
	for k, v := range reg.Snapshot() {
		if len(k) > len("guoq_accepts_total{") && k[:len("guoq_accepts_total{")] == "guoq_accepts_total{" {
			snapAccepts += v
		}
	}
	if snapAccepts != float64(res.Accepted) {
		t.Fatalf("registry accepts sum to %g, want %d", snapAccepts, res.Accepted)
	}
}

// Instrumentation must not perturb the search: a seeded synchronous run
// with a registry is bit-identical to one without (metrics consume no
// randomness), and a session without Options.Metrics still answers
// Metrics() from its private registry.
func TestMetricsDoNotPerturbSearch(t *testing.T) {
	c := nativeRandom(t, 52, 40)
	o := Options{GateSet: "nam", Seed: 9, MaxIters: 300, Budget: 10 * time.Minute}
	plain, resA, err := Optimize(c, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Metrics = NewMetricsRegistry()
	instrumented, resB, err := Optimize(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.WriteQASM() != instrumented.WriteQASM() {
		t.Fatal("instrumented run diverged from the uninstrumented one for equal seeds")
	}
	if resA.Iters != resB.Iters || resA.Accepted != resB.Accepted {
		t.Fatalf("statistics diverged: %d/%d vs %d/%d", resA.Iters, resA.Accepted, resB.Iters, resB.Accepted)
	}

	sess, err := Start(context.Background(), c, Options{GateSet: "nam", Seed: 9, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if snap := sess.Metrics(); snap["guoq_iterations_total"] == 0 {
		t.Fatal("private registry (nil Options.Metrics) recorded nothing")
	}
}
