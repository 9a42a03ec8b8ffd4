package dist_test

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/store"
)

// Submit → optimize → resubmit: the second submission of the identical
// (circuit, target, ε, objective) is answered from the result cache
// without opening a session, and the metrics surface reports the hit.
func TestSubmitCacheRoundTrip(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{})
	const eps = 1e-8
	rng := rand.New(rand.NewSource(11))
	input := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)
	optimized := circuit.Random(4, 12, gateset.IBMEagle.Gates, rng)

	w1 := client(t, hs, "", "w1", eps)
	resp, err := w1.Submit(input, "ibm-eagle", "2q", eps)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	if resp.Session == "" {
		t.Fatal("miss did not assign a session")
	}
	// Join the assigned session and publish the "optimized" result.
	w1.Session = resp.Session
	if _, _, ok := w1.Exchange(optimized, 3e-9, 12); ok {
		t.Fatal("fresh session offered an adoption")
	}

	// A second submitter with the same request is served from the cache.
	w2 := client(t, hs, "", "w2", eps)
	resp2, err := w2.Submit(input, "ibm-eagle", "2q", eps)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if resp2.Best.Cost != 12 || resp2.Best.Err != 3e-9 {
		t.Fatalf("cached best = %+v, want cost 12, err 3e-9", resp2.Best)
	}
	got, gotErr, err := resp2.Best.Open()
	if err != nil {
		t.Fatal(err)
	}
	if gotErr != 3e-9 || got.WriteQASM() != optimized.WriteQASM() {
		t.Fatal("cached circuit does not round-trip to the published best")
	}

	// A different ε is a different request: no hit.
	resp3, err := w2.Submit(input, "ibm-eagle", "2q", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Cached {
		t.Fatal("different epsilon hit the cache")
	}

	// Metrics and status expose the traffic.
	body := get(t, hs.URL+"/metrics")
	if !strings.Contains(body, "guoqd_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit:\n%s", body)
	}
	if !strings.Contains(body, "guoqd_cache_misses_total 2") {
		t.Fatalf("metrics missing cache misses:\n%s", body)
	}
	var st dist.Status
	if err := json.Unmarshal([]byte(get(t, hs.URL+"/v1/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheEntries != 1 {
		t.Fatalf("status cache fields = hits %d misses %d entries %d, want 1/2/1", st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	if st.CacheHitRate <= 0 || st.CacheHitRate >= 1 {
		t.Fatalf("status hit rate = %v, want in (0,1)", st.CacheHitRate)
	}
}

// Textual variants of the same circuit share a cache slot: the server
// canonicalizes via a QASM parse + re-emit round trip before hashing.
func TestSubmitNormalizesQASM(t *testing.T) {
	srv, hs := newLoopback(t, dist.ServerOptions{})
	_ = srv
	rng := rand.New(rand.NewSource(13))
	input := circuit.Random(3, 15, gateset.IBMEagle.Gates, rng)
	qasm := input.WriteQASM()
	// Reformat: extra blank lines and comments parse to the same circuit.
	variant := "// a comment\n" + strings.ReplaceAll(qasm, "\n", "\n\n")
	reparsed, err := circuit.ParseQASM(variant)
	if err != nil {
		t.Fatal(err)
	}

	w := client(t, hs, "", "w1", 1e-8)
	r1, err := w.Submit(input, "ibm-eagle", "2q", 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Submit(reparsed, "ibm-eagle", "2q", 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Session != r2.Session {
		t.Fatalf("formatting changed the session: %s vs %s", r1.Session, r2.Session)
	}
}

// A server with the cache disabled still answers submissions (always a
// session, never a hit).
func TestSubmitCacheDisabled(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{CacheEntries: -1})
	rng := rand.New(rand.NewSource(17))
	input := circuit.Random(3, 10, gateset.IBMEagle.Gates, rng)
	w := client(t, hs, "", "w1", 1e-8)
	resp, err := w.Submit(input, "ibm-eagle", "2q", 1e-8)
	if err != nil || resp.Cached || resp.Session == "" {
		t.Fatalf("Submit with cache disabled = (%+v, %v)", resp, err)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// Content addresses are durable: a WAL session, a snapshot and a spilled
// cache file are all found by them, so a guoqd upgraded in place must
// derive the same keys from the same requests. The digests were computed
// by the fmt-based hashing these functions used before.
func TestContentAddressesStable(t *testing.T) {
	digits := circuit.New(2) // angles that need all 17 digits
	digits.Append(gate.NewRz(0.3, 0), gate.NewCX(0, 1), gate.NewRz(-math.Pi/3, 1))
	negZero := circuit.New(1)
	negZero.Append(gate.New(gate.U3, []int{0}, []float64{math.Copysign(0, -1), math.Pi / 2, math.Pi}))
	for _, tc := range []struct {
		c                   *circuit.Circuit
		target, objective   string
		eps                 float64
		cacheKey, sessionID string
	}{
		{digits, "ibm-eagle", "2q", 1e-8,
			"64854b18dfe97e3ee6c80a317d36ac87435365e3180deea12f366331262c4d1e", "684b518afa56bd01"},
		{negZero, "ibmq20", "gates", 1.0 / 3,
			"54fb8dca2bb3b2a9a7063146498e308f4e683e0baede08b76aa55778e1b4ead1", "546db003c3022cbf"},
		{circuit.New(0), "cliffordt", "t", 0,
			"fb957fdefb77f83f71966f41a3d796b5c430440104b0366be0281c8174313c48", "190697ef61cb02a8"},
	} {
		if got := store.CacheKey(tc.c.WriteQASM(), tc.target, tc.objective, tc.eps); got != tc.cacheKey {
			t.Errorf("CacheKey(%q) = %s, want %s", tc.c.WriteQASM(), got, tc.cacheKey)
		}
		if got := dist.SessionID(tc.c, tc.objective, tc.eps); got != tc.sessionID {
			t.Errorf("SessionID(%q) = %s, want %s", tc.c.WriteQASM(), got, tc.sessionID)
		}
	}
}

// BenchmarkSubmitCacheHit is guoqd's read path end to end: a client with
// the default wire submits a 1,000-gate circuit whose result is cached,
// over loopback HTTP.
func BenchmarkSubmitCacheHit(b *testing.B) {
	hs := httptest.NewServer(dist.NewServer(dist.ServerOptions{}).Handler())
	defer hs.Close()
	const eps = 1e-8
	in := circuit.Random(8, 1000, gateset.IBMEagle.Gates, rand.New(rand.NewSource(3)))
	cl := dist.NewClient(hs.URL, "", "bench")
	cl.Epsilon = eps
	cl.MinInterval = -1
	resp, err := cl.Submit(in, "ibm-eagle", "2q", eps)
	if err != nil {
		b.Fatal(err)
	}
	cl.Session = resp.Session
	cl.Exchange(in, 0, 1) // publishes the circuit as the cached best
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Submit(in, "ibm-eagle", "2q", eps)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("submit missed the cache")
		}
	}
}
