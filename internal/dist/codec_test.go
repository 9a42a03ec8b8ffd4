package dist

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// A client speaking gzip gets identical semantics over the wire:
// exchanges and submissions work end to end with compression on.
func TestWireNegotiation(t *testing.T) {
	for _, mode := range []struct {
		name string
		gzip bool
	}{
		{"json", false},
		{"gzip", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv := NewServer(ServerOptions{})
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			rng := rand.New(rand.NewSource(21))
			// Big enough that gzip's response floor (1 KB) is exercised.
			input := circuit.Random(5, 200, gateset.IBMEagle.Gates, rng)

			c := NewClient(hs.URL, "", "w")
			c.Epsilon = 1e-8
			c.MinInterval = -1
			c.Gzip = mode.gzip

			resp, err := c.Submit(input, "ibm-eagle", "2q", 1e-8)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			c.Session = resp.Session
			if _, _, ok := c.Exchange(input, 0, 100); ok {
				t.Fatal("fresh session offered an adoption")
			}
			// Second worker behind the best adopts it through the same codec.
			c2 := NewClient(hs.URL, resp.Session, "w2")
			c2.Epsilon = 1e-8
			c2.MinInterval = -1
			c2.Gzip = mode.gzip
			adopted, _, ok := c2.Exchange(circuit.New(5), 0, 999)
			if !ok {
				t.Fatal("no adoption over negotiated codec")
			}
			if adopted.WriteQASM() != input.WriteQASM() {
				t.Fatal("adopted circuit corrupted in transit")
			}
		})
	}
}

// A client that asks for no compression gets plain JSON replies with no
// Content-Encoding.
func TestWireDefaultsToPlainJSON(t *testing.T) {
	srv := NewServer(ServerOptions{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body := strings.NewReader(`{"session":"s","epsilon":1e-8,"best":{"qasm":"","err":0,"cost":0}}`)
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/exchange", body)
	req.Header.Set("Content-Type", "application/json")
	// Explicitly refuse alternate encodings like a minimal client would.
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("uninvited Content-Encoding %q", ce)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want JSON", ct)
	}
}

// Pooled compressors write what a fresh gzip.Writer writes, body after
// body, so replies and request bodies are byte-identical on the wire.
func TestWriteGzipMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, gates := range []int{40, 1500, 10, 6000, 200} {
		payload := []byte(circuit.Random(6, gates, gateset.IBMEagle.Gates, rng).WriteQASM())
		var fresh, pooled bytes.Buffer
		zw := gzip.NewWriter(&fresh)
		if _, err := zw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := writeGzip(&pooled, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh.Bytes(), pooled.Bytes()) {
			t.Fatalf("%d gates: pooled gzip differs from a fresh writer's", gates)
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// A gzipped reply allocates no more than a plain one plus the compressed
// body: writeReply reuses pooled compressors, where building one per reply
// allocated about 800 KB.
func TestWriteReplyGzipPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so pooled compressors are rebuilt")
	}
	rng := rand.New(rand.NewSource(5))
	c := circuit.Random(8, 3200, gateset.IBMEagle.Gates, rng) // about 48 KB of QASM
	reply := &SubmitResponse{Cached: true, Session: "s", Best: Solution{Envelope: circuit.Seal(c, 0), Cost: 1}}
	perCall := func(acceptGzip bool) uint64 {
		r := httptest.NewRequest(http.MethodPost, "/v1/submit", nil)
		if acceptGzip {
			r.Header.Set("Accept-Encoding", "gzip")
		}
		write := func() { writeReply(httptest.NewRecorder(), r, reply) }
		write() // fills the pool
		return bytesPerRun(20, write)
	}
	plain, gzipped := perCall(false), perCall(true)
	if gzipped > plain+16<<10 {
		t.Errorf("gzipped reply of %d bytes of QASM: %d B/op, plain %d B/op; want at most 16 KB more",
			len(reply.Best.QASM), gzipped, plain)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap allocated per
// call of f, averaged over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// binaryFrame builds a body in the retired binary envelope framing: magic
// "GQB1", then the fields in order, strings uvarint-length-prefixed and
// floats 8-byte little-endian.
func binaryFrame(fields ...any) []byte {
	b := []byte("GQB1")
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// A client still sending the retired binary envelope framing gets a 4xx
// on both endpoints that accepted it, never a 200 from a misparse, and
// opens no session.
func TestWireRejectsBinaryBody(t *testing.T) {
	srv := NewServer(ServerOptions{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	qasm := "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"
	for path, body := range map[string][]byte{
		// session, worker, ε, then the solution: QASM, err, cost.
		"/v1/exchange": binaryFrame("s", "w", 1e-8, qasm, 0.0, 1.0),
		// QASM, target, objective, ε, worker.
		"/v1/submit": binaryFrame(qasm, "ibm-eagle", "2q", 1e-8, "w"),
	} {
		req, err := http.NewRequest(http.MethodPost, hs.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-guoq-bin")
		req.Header.Set("Accept", "application/x-guoq-bin")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s with a binary body: status %d, want 4xx", path, resp.StatusCode)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if n := len(srv.sessions); n != 0 {
		t.Fatalf("binary bodies opened %d sessions", n)
	}
}

// Idempotent requests retry through transient failures; leases never do.
func TestClientRetry(t *testing.T) {
	var pushSeen, leaseSeen int
	srv := NewServer(ServerOptions{})
	inner := srv.Handler()
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/push":
			pushSeen++
			if pushSeen <= 2 {
				httpError(w, http.StatusServiceUnavailable, "warming up")
				return
			}
		case "/v1/jobs/lease":
			leaseSeen++
			httpError(w, http.StatusServiceUnavailable, "warming up")
			return
		}
		inner.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(flaky)
	defer hs.Close()

	c := NewClient(hs.URL, "", "w")
	c.MinInterval = -1
	added, err := c.Push("q", []Job{{ID: "a"}})
	if err != nil || added != 1 {
		t.Fatalf("Push through flaky server = (%d, %v), want (1, nil)", added, err)
	}
	if pushSeen != 3 {
		t.Fatalf("push attempts = %d, want 3 (2 failures + success)", pushSeen)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("stats.Retries = %d, want 2", st.Retries)
	}
	// Lease fails immediately: not idempotent, never retried.
	if _, _, _, err := c.Lease("q", time.Minute); err == nil {
		t.Fatal("lease through 503 succeeded")
	}
	if leaseSeen != 1 {
		t.Fatalf("lease attempts = %d, want exactly 1 (no retry)", leaseSeen)
	}
}

// Retries are bounded and non-transient failures are not retried at all.
func TestClientRetryBounds(t *testing.T) {
	var seen int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen++
		httpError(w, http.StatusBadRequest, "never valid")
	}))
	defer hs.Close()
	c := NewClient(hs.URL, "", "w")
	if _, err := c.Push("q", []Job{{ID: "a"}}); err == nil {
		t.Fatal("400 reported as success")
	}
	if seen != 1 {
		t.Fatalf("400 retried: %d attempts", seen)
	}

	seen = 0
	hs2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen++
		httpError(w, http.StatusServiceUnavailable, "down")
	}))
	defer hs2.Close()
	c2 := NewClient(hs2.URL, "", "w")
	c2.Retries = 1
	if _, err := c2.Push("q", []Job{{ID: "a"}}); err == nil {
		t.Fatal("permanently down server reported success")
	}
	if seen != 2 {
		t.Fatalf("attempts = %d, want 2 (1 try + 1 retry)", seen)
	}
}

// The quota middleware answers over-rate requests with 429 + Retry-After
// and keeps /healthz and /metrics exempt.
func TestQuotaRejectsWith429(t *testing.T) {
	srv := NewServer(ServerOptions{QuotaRate: 0.5, QuotaBurst: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	status := func() *http.Response {
		resp, err := http.Get(hs.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if r := status(); r.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d", r.StatusCode)
	}
	if r := status(); r.StatusCode != http.StatusOK {
		t.Fatalf("burst request = %d", r.StatusCode)
	}
	r := status()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request = %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// Health and metrics stay open regardless.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s throttled: %d", path, resp.StatusCode)
		}
	}
	// The rejection is visible in metrics.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "guoqd_quota_rejections_total 1") {
		t.Fatal("quota rejection not counted")
	}
}
