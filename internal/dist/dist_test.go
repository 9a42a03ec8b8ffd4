package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/verify"
)

func newLoopback(t *testing.T, opts dist.ServerOptions) (*dist.Server, *httptest.Server) {
	t.Helper()
	srv := dist.NewServer(opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func client(t *testing.T, hs *httptest.Server, session, worker string, eps float64) *dist.Client {
	t.Helper()
	c, err := dist.Dial(hs.URL, session, worker)
	if err != nil {
		t.Fatal(err)
	}
	c.Epsilon = eps
	c.MinInterval = -1 // deterministic: no rate limiting in tests
	return c
}

// The server mirrors the in-process coordinator's exchange invariants:
// store only strict improvements within the ε budget, offer the best only
// to callers strictly behind it.
func TestExchangeSessionSemantics(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{})
	const eps = 1e-8
	cost := opt.TwoQubitCost()
	rng := rand.New(rand.NewSource(3))
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)
	better := circuit.New(4)

	w1 := client(t, hs, "s", "w1", eps)
	w2 := client(t, hs, "s", "w2", eps)

	// First publication: nothing better exists, nothing to adopt.
	if _, _, ok := w1.Exchange(base, 0, cost(base)); ok {
		t.Fatal("fresh session offered an adoption")
	}
	// A better solution from another worker is stored but not returned to
	// its own publisher.
	if _, _, ok := w2.Exchange(better, 2e-9, cost(better)); ok {
		t.Fatal("publisher was offered its own solution")
	}
	// The worker that is behind adopts it, with the error bound intact.
	adopt, adoptErr, ok := w1.Exchange(base, 0, cost(base))
	if !ok {
		t.Fatal("lagging worker was not offered the session best")
	}
	if adoptErr != 2e-9 {
		t.Fatalf("adopted error bound %g, want 2e-9", adoptErr)
	}
	if got := cost(adopt); got != cost(better) {
		t.Fatalf("adopted cost %g, want %g", got, cost(better))
	}

	// An over-budget publication must be rejected even when its cost wins:
	// accepting it would leak BestError > Epsilon to every participant.
	if _, _, ok := w2.Exchange(better, 1e-3, -1); ok {
		t.Fatal("over-budget publication was stored and offered back")
	}
	if _, adoptErr, ok := w1.Exchange(base, 0, cost(base)); !ok || adoptErr != 2e-9 {
		t.Fatalf("session best corrupted by over-budget publication: ok=%v err=%g", ok, adoptErr)
	}

	// Stats reflect the traffic.
	st := w1.Stats()
	if st.Exchanges != 3 || st.Adoptions != 2 || st.Errors != 0 {
		t.Fatalf("w1 stats = %+v", st)
	}
}

// Two sessions never cross-pollinate, and SessionID separates different
// inputs while agreeing across processes for equal ones.
func TestSessionIsolation(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{})
	cost := opt.TwoQubitCost()
	rng := rand.New(rand.NewSource(4))
	a := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)
	b := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)

	if dist.SessionID(a, "2q", 1e-8) == dist.SessionID(b, "2q", 1e-8) {
		t.Fatal("different circuits derived the same session id")
	}
	if dist.SessionID(a, "2q", 1e-8) != dist.SessionID(a.Clone(), "2q", 1e-8) {
		t.Fatal("equal circuits derived different session ids")
	}
	if dist.SessionID(a, "2q", 1e-8) == dist.SessionID(a, "t", 1e-8) {
		t.Fatal("different objectives shared a session id")
	}

	wa := client(t, hs, dist.SessionID(a, "2q", 1e-8), "wa", 1e-8)
	wb := client(t, hs, dist.SessionID(b, "2q", 1e-8), "wb", 1e-8)
	wa.Exchange(circuit.New(4), 0, 0) // session a best: empty circuit
	if _, _, ok := wb.Exchange(b, 0, cost(b)); ok {
		t.Fatal("session b adopted session a's solution")
	}
}

// A client never adopts a solution whose bound exceeds its own ε budget,
// even when a session pinned across runs with different -epsilon values
// tolerates it server-side.
func TestClientRejectsOverBudgetAdoption(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{})
	cost := opt.TwoQubitCost()
	rng := rand.New(rand.NewSource(9))
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)

	// The loose run creates the session with ε=1e-2 and publishes a best
	// whose bound (1e-3) fits that budget.
	loose := client(t, hs, "pinned", "loose", 1e-2)
	loose.Exchange(circuit.New(4), 1e-3, 0)

	// The strict run (ε=1e-8) would be offered that solution, but must
	// refuse it: adopting would break its BestError ≤ Epsilon contract.
	strict := client(t, hs, "pinned", "strict", 1e-8)
	if _, _, ok := strict.Exchange(base, 0, cost(base)); ok {
		t.Fatal("strict client adopted a solution 5 orders of magnitude over its ε budget")
	}
	// A bound within the strict budget is still adoptable.
	loose.Exchange(circuit.New(4), 2e-9, -1)
	if _, adoptErr, ok := strict.Exchange(base, 0, cost(base)); !ok || adoptErr != 2e-9 {
		t.Fatalf("strict client refused an in-budget adoption: ok=%v err=%g", ok, adoptErr)
	}
}

// The exchange rate limit answers stale polls locally and lets
// improvements through immediately.
func TestClientExchangeThrottle(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{})
	cost := opt.TwoQubitCost()
	rng := rand.New(rand.NewSource(10))
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)

	c := client(t, hs, "throttle", "w", 1e-8)
	c.MinInterval = time.Hour // nothing non-improving gets through

	c.Exchange(base, 0, cost(base))   // first call always goes out
	c.Exchange(base, 0, cost(base))   // stale repeat: throttled
	c.Exchange(base, 0, cost(base)-1) // improvement: goes out
	c.Exchange(base, 0, cost(base)-1) // stale again: throttled
	st := c.Stats()
	if st.Exchanges != 2 || st.Throttled != 2 {
		t.Fatalf("stats = %+v, want 2 exchanges and 2 throttled", st)
	}
}

// A client facing a dead coordinator degrades to local search: Exchange
// reports nothing to adopt and counts the error.
func TestClientDegradesWithoutCoordinator(t *testing.T) {
	c := dist.NewClient("127.0.0.1:1", "s", "w") // nothing listens on port 1
	if _, _, ok := c.Exchange(circuit.New(2), 0, 1); ok {
		t.Fatal("exchange against a dead coordinator claimed success")
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", st)
	}
}

// Acceptance: two Portfolio runs on separate Exchanger clients converge
// through one coordinator to a result no worse than either run alone,
// with BestError ≤ Epsilon preserved across migration and the result
// still ε-equivalent to the input.
func TestLoopbackDistributedPortfolio(t *testing.T) {
	srv, hs := newLoopback(t, dist.ServerOptions{})
	_ = srv
	const eps = 1e-8

	ts, err := opt.Instantiate(gateset.IBMEagle, opt.InstantiateOptions{
		EpsilonF:  eps,
		SynthTime: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.Random(5, 60, gateset.IBMEagle.Gates, rand.New(rand.NewSource(6)))
	session := dist.SessionID(c, "2q", eps)
	cost := opt.TwoQubitCost()

	results := make([]*opt.Result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := opt.DefaultOptions()
			opts.Cost = cost
			opts.Seed = int64(100 + i)
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			opts.Context = ctx
			opts.ExchangeEvery = 8
			opts.Exchanger = client(t, hs, session, "machine", eps)
			results[i] = opt.Portfolio(c, ts, opts, 2)
		}(i)
	}
	wg.Wait()

	inCost := cost(c)
	for i, r := range results {
		if r.BestError > eps {
			t.Fatalf("run %d: BestError %g exceeds budget %g", i, r.BestError, eps)
		}
		if got := cost(r.Best); got > inCost {
			t.Fatalf("run %d: cost regressed %g -> %g", i, inCost, got)
		}
		if err := verify.MustBeEquivalent(c, r.Best, 1e-6, int64(23+i)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	// The session best is the global convergence point: no worse than
	// either run alone, within budget, and still equivalent to the input.
	probe := client(t, hs, session, "probe", eps)
	global, globalErr, ok := probe.Exchange(c, 0, 1e308)
	if !ok {
		t.Fatal("probe found no session best after two portfolio runs")
	}
	if globalErr > eps {
		t.Fatalf("session best error %g exceeds budget %g", globalErr, eps)
	}
	gc := cost(global)
	for i, r := range results {
		if gc > cost(r.Best) {
			t.Fatalf("session best (%g) worse than run %d alone (%g)", gc, i, cost(r.Best))
		}
	}
	if err := verify.MustBeEquivalent(c, global, 1e-6, 29); err != nil {
		t.Fatal("session best not equivalent to input:", err)
	}
}

// Malformed or poisonous publications (garbage QASM) must never become the
// session best another machine would adopt and fail to parse.
func TestExchangeRejectsMalformedQASM(t *testing.T) {
	srv, hs := newLoopback(t, dist.ServerOptions{})
	_ = srv
	cost := opt.TwoQubitCost()
	rng := rand.New(rand.NewSource(8))
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)

	honest := client(t, hs, "poison", "honest", 1e-8)
	if _, _, ok := honest.Exchange(base, 0, cost(base)); ok {
		t.Fatal("fresh session offered an adoption")
	}

	// Hand-roll a poisoned publication: it costs less than anything
	// honest, but the QASM is garbage.
	req := dist.ExchangeRequest{
		Session: "poison", Worker: "evil", Epsilon: 1e-8,
		Best: dist.Solution{
			Envelope: circuit.Envelope{QASM: "not qasm at all", Err: 0},
			Cost:     -100,
		},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/exchange", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var xr dist.ExchangeResponse
	if err := json.NewDecoder(resp.Body).Decode(&xr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if xr.Adopt {
		t.Fatal("garbage publication was offered back")
	}
	if _, _, ok := honest.Exchange(base, 0, cost(base)); ok {
		t.Fatal("garbage publication became the session best")
	}
}
