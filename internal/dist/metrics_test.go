package dist_test

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// /metrics serves the Prometheus text format and reflects real traffic:
// exchange publications and adoptions, live sessions, request counters —
// and it stays open when token auth locks the /v1/ endpoints (like
// /healthz, so a stock scrape config needs no credentials).
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	srv, hs := newLoopback(t, dist.ServerOptions{
		Token:   "sekrit",
		Metrics: reg,
	})
	if srv.Registry() != reg {
		t.Fatal("server did not adopt the supplied registry")
	}

	cost := opt.TwoQubitCost()
	base := circuit.Random(4, 30, gateset.IBMEagle.Gates, rand.New(rand.NewSource(11)))
	better := circuit.New(4)
	w1 := client(t, hs, "s", "w1", 1e-8)
	w1.Token = "sekrit"
	w2 := client(t, hs, "s", "w2", 1e-8)
	w2.Token = "sekrit"

	w1.Exchange(base, 0, cost(base))                       // publish (stores the first best)
	w2.Exchange(better, 0, cost(better))                   // publish an improvement
	if _, _, ok := w1.Exchange(base, 0, cost(base)); !ok { // adopt it
		t.Fatal("expected an adoption")
	}

	// A guoq worker colocated with the daemon shares the registry: engine
	// counters — including the halo families — surface through the same
	// scrape.
	em := opt.NewMetrics(reg)
	em.AddEngineStats(rewrite.EngineStats{
		CacheSkips: 5, HaloGates: 11, HaloDepth: 4,
	})

	// Unauthenticated scrape must succeed despite -token.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics returned %s with token auth enabled", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"guoqd_exchange_publishes_total 2",
		"guoqd_exchange_adoptions_total 1",
		"guoqd_sessions_live 1",
		`guoqd_requests_total{path="/v1/exchange",code="200"} 3`,
		`guoqd_request_seconds_count{path="/v1/exchange"} 3`,
		"guoqd_uptime_seconds",
		"guoq_engine_cache_hits_total 5",
		"guoq_engine_halo_gates_total 11",
		"guoq_engine_halo_depth 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Unauthenticated /v1/ requests are rejected — and the rejection itself
	// is visible in the request series (metrics wrap outside auth).
	st, err := http.Get(hs.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/status returned %s", st.Status)
	}
	snap := reg.Snapshot()
	if snap[`guoqd_requests_total{path="/v1/status",code="401"}`] != 1 {
		t.Fatalf("401 not recorded in request series: %v", snap)
	}
}

// Cardinality of the path label is bounded: unknown paths, including the
// retired per-queue reads, collapse to one label value, so a scanner
// cannot grow the registry.
func TestMetricsPathCardinality(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newLoopback(t, dist.ServerOptions{Metrics: reg})
	for _, p := range []string{"/v1/queues/a", "/v1/queues/b", "/wp-admin.php", "/etc/passwd"} {
		resp, err := http.Get(hs.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	snap := reg.Snapshot()
	for k := range snap {
		if strings.Contains(k, "wp-admin") || strings.Contains(k, "passwd") ||
			strings.Contains(k, "/v1/queues/a") {
			t.Fatalf("unbounded path label leaked into the registry: %s", k)
		}
	}
	if snap[`guoqd_request_seconds_count{path="other"}`] != 4 {
		t.Fatalf("unknown paths did not collapse to \"other\": %v", snap)
	}
}

// GET /v1/status carries the fleet-level additions — uptime and live
// exchange sessions — alongside the original session map (new fields
// only: old clients ignore them, old servers omit them).
func TestStatusUptimeAndLiveSessions(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{})
	w := client(t, hs, "s", "w", 1e-8)
	w.Exchange(circuit.New(4), 0, 0)

	var st dist.Status
	resp, err := http.Get(hs.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("UptimeSeconds = %g, want > 0", st.UptimeSeconds)
	}
	if st.LiveSessions != 1 {
		t.Fatalf("LiveSessions = %d, want 1", st.LiveSessions)
	}
	if _, ok := st.Sessions["s"]; !ok {
		t.Fatal("original Sessions map lost")
	}
}
