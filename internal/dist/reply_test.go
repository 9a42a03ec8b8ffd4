package dist

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/store"
)

// submitHarness drives a server's handler and, beside it, an oracle that
// answers each submit the slow way: parse, re-emit, key, and look the key
// up among the results published so far. Every reply must equal the
// oracle's byte for byte, with its status and encoding headers.
type submitHarness struct {
	tb        testing.TB
	s         *Server
	h         http.Handler
	published map[string]store.CacheEntry // by cache key
	hits      int64                       // submits the oracle answered from the cache
	misses    int64                       // submits the oracle answered with a session, cache on
}

func newSubmitHarness(tb testing.TB, opts ServerOptions) *submitHarness {
	s := NewServer(opts)
	return &submitHarness{tb: tb, s: s, h: s.Handler(), published: map[string]store.CacheEntry{}}
}

// post sends v as the JSON body of a POST to path.
func (sh *submitHarness) post(path string, v any, acceptGzip bool) *httptest.ResponseRecorder {
	body, err := json.Marshal(v)
	if err != nil {
		sh.tb.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if acceptGzip {
		r.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	sh.h.ServeHTTP(rec, r)
	return rec
}

// submit sends req, checks the reply against the oracle's, and returns the
// cache key the oracle derived ("" when the request is rejected).
func (sh *submitHarness) submit(req SubmitRequest, acceptGzip bool) string {
	sh.tb.Helper()
	// The server sees req after a JSON round trip, which replaces invalid
	// UTF-8; so does the oracle.
	body, _ := json.Marshal(req)
	var sent SubmitRequest
	if err := json.Unmarshal(body, &sent); err != nil {
		sh.tb.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/submit", nil)
	if acceptGzip {
		r.Header.Set("Accept-Encoding", "gzip")
	}
	want := httptest.NewRecorder()
	key := sh.oracle(want, r, sent)
	got := sh.post("/v1/submit", req, acceptGzip)
	for _, h := range []string{"Content-Type", "Content-Encoding"} {
		if got.Header().Get(h) != want.Header().Get(h) {
			sh.tb.Fatalf("submit %.40q (gzip %v): %s %q, want %q", req.QASM, acceptGzip, h, got.Header().Get(h), want.Header().Get(h))
		}
	}
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		sh.tb.Fatalf("submit %.40q (gzip %v): status %d body %.200q, want %d %.200q",
			req.QASM, acceptGzip, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
	return key
}

// oracle writes the reply handleSubmit must give req onto rec.
func (sh *submitHarness) oracle(rec *httptest.ResponseRecorder, r *http.Request, req SubmitRequest) string {
	if req.QASM == "" || req.Target == "" || req.Objective == "" {
		httpError(rec, http.StatusBadRequest, "missing qasm, target, or objective")
		return ""
	}
	c, err := circuit.ParseQASM(req.QASM)
	if err != nil {
		httpError(rec, http.StatusBadRequest, "bad circuit: "+err.Error())
		return ""
	}
	key := store.CacheKey(c.WriteQASM(), req.Target, req.Objective, req.Epsilon)
	resp := &SubmitResponse{Session: key[:16]}
	if e, ok := sh.published[key]; ok && sh.s.cache != nil {
		resp.Cached = true
		resp.Best = Solution{Envelope: circuit.Envelope{QASM: e.QASM, Err: e.Err}, Cost: e.Cost}
		sh.hits++
	} else if sh.s.cache != nil {
		sh.misses++
	}
	writeReply(rec, r, resp)
	return key
}

// publish sends best as an improving exchange into the session bound to
// key, and records it as key's cache entry.
func (sh *submitHarness) publish(key string, epsilon float64, best *circuit.Circuit, cost float64) {
	sh.tb.Helper()
	env := circuit.Seal(best, 0)
	rec := sh.post("/v1/exchange", ExchangeRequest{Session: key[:16], Epsilon: epsilon, Best: Solution{Envelope: env, Cost: cost}}, false)
	if rec.Code != http.StatusOK {
		sh.tb.Fatalf("publish: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if old, ok := sh.published[key]; !ok || cost < old.Cost {
		sh.published[key] = store.CacheEntry{QASM: env.QASM, Err: env.Err, Cost: cost}
	}
}

// checkCounters compares the server's hit and miss counts, on /metrics'
// counters and on /v1/status, with the oracle's.
func (sh *submitHarness) checkCounters() {
	sh.tb.Helper()
	if h, m := sh.s.sm.cacheHits.Value(), sh.s.sm.cacheMisses.Value(); h != sh.hits || m != sh.misses {
		sh.tb.Fatalf("guoqd_cache_hits_total %d, guoqd_cache_misses_total %d; want %d and %d", h, m, sh.hits, sh.misses)
	}
	rec := httptest.NewRecorder()
	sh.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		sh.tb.Fatal(err)
	}
	if st.CacheHits != sh.hits || st.CacheMisses != sh.misses {
		sh.tb.Fatalf("/v1/status counts %d hits and %d misses, want %d and %d", st.CacheHits, st.CacheMisses, sh.hits, sh.misses)
	}
}

// rzChain is a one-qubit circuit of n rotations: a distinct, parseable
// result to publish for each n.
func rzChain(n int) *circuit.Circuit {
	c := circuit.New(1)
	for i := 0; i < n; i++ {
		c.Append(gate.NewRz(float64(i+1)/8, 0))
	}
	return c
}

// Every submit reply is the bytes writeReply gives the same
// SubmitResponse, whether the server finds the key by the text as sent, by
// its canonical form, in a reply it recorded, or in the spill; and each
// submit counts once as a hit or a miss.
func TestSubmitRepliesByteIdentical(t *testing.T) {
	const eps = 1e-8
	rng := rand.New(rand.NewSource(19))
	in1 := circuit.Random(4, 200, gateset.IBMEagle.Gates, rng).WriteQASM()
	in2 := circuit.Random(4, 40, gateset.IBMEagle.Gates, rng).WriteQASM()
	req := func(qasm string) SubmitRequest {
		return SubmitRequest{QASM: qasm, Target: "ibm-eagle", Objective: "2q", Epsilon: eps, Worker: "w"}
	}
	variant := "// a comment\n" + strings.ReplaceAll(in1, "\n", "\n\n")

	// One entry in memory, so a second key evicts the first to the spill.
	sh := newSubmitHarness(t, ServerOptions{DataDir: t.TempDir(), CacheEntries: 1})
	key1 := sh.submit(req(in1), true) // miss
	sh.publish(key1, eps, rzChain(90), 5)
	for _, gz := range []bool{true, true, false, false} { // encodes once, then replays
		sh.submit(req(in1), gz)
	}
	sh.submit(req(variant), true) // found by the canonical text
	sh.submit(req(variant), false)
	sh.publish(key1, eps, rzChain(80), 3) // replaces the entry and its reply
	sh.submit(req(in1), true)
	sh.submit(req(in1), false)

	key2 := sh.submit(req(in2), false)   // miss
	sh.publish(key2, eps, rzChain(2), 1) // evicts key1; a reply under the size floor
	sh.submit(req(in2), true)
	sh.submit(req(in2), false)
	sh.submit(req(in1), true) // reloaded from the spill
	sh.submit(req(in1), false)
	if st := sh.s.cache.Stats(); st.DiskHits == 0 {
		t.Fatal("no submit was served from the spill")
	}

	// A result published under a target that holds a NUL has the key the
	// text as sent would have if the NUL moved into the QASM. That text is
	// not canonical and must be parsed, not served.
	split := req(in1)
	split.Target = "ibm\x00eagle"
	sh.publish(sh.submit(split, true), eps, rzChain(3), 1)
	sh.submit(split, true)
	nul := req(in1 + "\x00ibm")
	nul.Target = "eagle"
	sh.submit(nul, true)

	sh.submit(req("qreg q[1];\nnot a gate;\n"), true) // a parse error
	sh.submit(SubmitRequest{QASM: in1, Target: "ibm-eagle"}, true)
	sh.checkCounters()

	off := newSubmitHarness(t, ServerOptions{CacheEntries: -1})
	off.submit(req(in1), true)
	off.submit(req(variant), false)
	off.checkCounters()
}

// A hit sends the reply recorded for its entry as it is: whatever bytes
// the cache holds for the entry are what the client gets.
func TestSubmitSendsRecordedReply(t *testing.T) {
	const eps = 1e-8
	sh := newSubmitHarness(t, ServerOptions{})
	req := SubmitRequest{QASM: rzChain(5).WriteQASM(), Target: "nam", Objective: "gates", Epsilon: eps}
	key := sh.submit(req, true)
	sh.publish(key, eps, rzChain(2), 2)
	const recorded = "{\"recorded\":true}\n"
	sh.s.cache.SetReply(key, sh.published[key], []byte(recorded))
	for _, gz := range []bool{true, false} {
		if got := sh.post("/v1/submit", req, gz).Body.String(); got != recorded {
			t.Fatalf("hit (gzip %v) sent %q, want the recorded reply %q", gz, got, recorded)
		}
	}
}

// Server-side allocations and bytes per cache-hit submit of a 1,000-gate
// circuit and per publish, through the handler, and the WAL bytes a
// publish appends. The hit path reads the body into a pooled buffer with
// the one-pass reader, hashes the text as sent and writes the reply
// recorded for the entry: parsing the circuit would cost over a thousand
// allocations more, encoding the reply again about eight, and decoding the
// body with encoding/json about 80 KB.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, which changes allocation counts")
	}
	const eps = 1e-8
	const runs = 50
	in := circuit.Random(8, 1000, gateset.IBMEagle.Gates, rand.New(rand.NewSource(3)))
	sh := newSubmitHarness(t, ServerOptions{})
	key := sh.submit(SubmitRequest{QASM: in.WriteQASM(), Target: "ibm-eagle", Objective: "2q", Epsilon: eps}, true)
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// perRequest serves one prepared request per call, so that only the
	// server's allocations are counted. The first call warms the pools.
	perRequest := func(h http.Handler, bodies [][]byte, acceptGzip bool, path string) (allocs, nbytes uint64) {
		reqs := make([]*http.Request, len(bodies))
		recs := make([]*httptest.ResponseRecorder, len(bodies))
		for i, b := range bodies {
			reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
			if acceptGzip {
				reqs[i].Header.Set("Accept-Encoding", "gzip")
			}
			recs[i] = httptest.NewRecorder()
		}
		i := 0
		serve := func() {
			h.ServeHTTP(recs[i], reqs[i])
			if recs[i].Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, recs[i].Code, recs[i].Body.Bytes())
			}
			i++
		}
		serve()
		return memPerRun(len(bodies)-1, serve)
	}
	env := circuit.Seal(in, 0)
	publishes := func(key string) [][]byte {
		bodies := make([][]byte, runs+1)
		for i := range bodies {
			bodies[i] = body(ExchangeRequest{Session: key[:16], Epsilon: eps, Best: Solution{Envelope: env, Cost: float64(1e6 - i)}})
		}
		return bodies
	}
	hit := body(SubmitRequest{QASM: in.WriteQASM(), Target: "ibm-eagle", Objective: "2q", Epsilon: eps})
	hits := make([][]byte, runs+1)
	for i := range hits {
		hits[i] = hit
	}
	for _, tc := range []struct {
		name      string
		bodies    [][]byte
		gzip      bool
		path      string
		maxAllocs uint64
		maxBytes  uint64
	}{
		// Measured: 23 allocations and 95.8 KB per publish, most of the
		// bytes in the parse that checks the circuit; 19 allocations and
		// 22.5 KB per gzip hit; 20 and 50.4 KB per plain hit, which also
		// marshals the reply. The statement-splitting parser gave 1,264 and
		// 97.9 KB per publish. Decoding with encoding/json gave 1,279 and
		// 175.7 KB, 30 and 102.7 KB, and 31 and 130.6 KB.
		{"publish", publishes(key), false, "/v1/exchange", 40, 120 << 10},
		{"gzip hit", hits, true, "/v1/submit", 26, 28 << 10},
		{"plain hit", hits, false, "/v1/submit", 27, 62 << 10},
	} {
		allocs, nbytes := perRequest(sh.h, tc.bodies, tc.gzip, tc.path)
		t.Logf("%s: %d allocs, %d bytes", tc.name, allocs, nbytes)
		if allocs > tc.maxAllocs {
			t.Errorf("%s of a 1,000-gate circuit: %d allocs, want at most %d", tc.name, allocs, tc.maxAllocs)
		}
		if nbytes > tc.maxBytes {
			t.Errorf("%s of a 1,000-gate circuit: %d bytes allocated, want at most %d", tc.name, nbytes, tc.maxBytes)
		}
	}

	// A publish appends one session record, whose bulk is the circuit.
	dir := t.TempDir()
	ds, err := OpenServer(ServerOptions{DataDir: dir, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	dsh := &submitHarness{tb: t, s: ds, h: ds.Handler(), published: map[string]store.CacheEntry{}}
	dkey := dsh.submit(SubmitRequest{QASM: in.WriteQASM(), Target: "ibm-eagle", Objective: "2q", Epsilon: eps}, true)
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	wal0 := walSize()
	perRequest(dsh.h, publishes(dkey), false, "/v1/exchange")
	// Measured: 16,277 bytes for 14,981 bytes of QASM, which JSON escapes
	// to 15,986.
	perPublish := (walSize() - wal0) / (runs + 1)
	t.Logf("WAL: %d bytes per publish", perPublish)
	if max := int64(16600); perPublish > max {
		t.Errorf("a publish of a 1,000-gate circuit appends %d WAL bytes, want at most %d", perPublish, max)
	}
}
