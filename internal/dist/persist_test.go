package dist

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/store"
)

// openDurable builds a durable coordinator over dir with per-append fsync
// (deterministic tests) and serves it over a loopback listener.
func openDurable(t *testing.T, dir string, opts ServerOptions) (*Server, *httptest.Server) {
	t.Helper()
	opts.DataDir = dir
	opts.SyncEvery = -1
	srv, err := OpenServer(opts)
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, hs
}

func testClient(t *testing.T, url, session, worker string, eps float64) *Client {
	t.Helper()
	c := NewClient(url, session, worker)
	c.Epsilon = eps
	c.MinInterval = -1
	return c
}

// Kill a durable guoqd mid-run, restart on the same data dir, and the
// restarted daemon serves the pre-restart session's best-so-far.
func TestRestartRecoversSessions(t *testing.T) {
	dir := t.TempDir()
	const eps = 1e-8
	rng := rand.New(rand.NewSource(7))
	best := circuit.Random(4, 30, gateset.IBMEagle.Gates, rng)

	srv, hs := openDurable(t, dir, ServerOptions{})
	w1 := testClient(t, hs.URL, "crash-session", "w1", eps)
	// Publish a best-so-far into the session.
	if _, _, ok := w1.Exchange(best, 2e-9, 10); ok {
		t.Fatal("fresh session offered an adoption")
	}
	// Simulate a crash: close the HTTP side and reopen WITHOUT srv.Close()
	// — no final checkpoint, everything must come back from the WAL alone.
	hs.Close()
	if err := srv.store.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.store.Close()

	srv2, hs2 := openDurable(t, dir, ServerOptions{})
	if srv2.recoveredSessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.recoveredSessions)
	}
	// The session kept its ε budget and best-so-far: a worker that is
	// behind adopts the pre-restart best.
	srv2.mu.Lock()
	ss := srv2.sessions["crash-session"]
	srv2.mu.Unlock()
	if ss == nil {
		t.Fatal("session lost across restart")
	}
	if st := ss.status(); st.Epsilon != eps || st.BestCost != 10 || st.BestErr != 2e-9 {
		t.Fatalf("recovered session = %+v, want ε=%g cost=10 err=2e-9", st, eps)
	}
	w2 := testClient(t, hs2.URL, "crash-session", "w2", eps)
	worse := circuit.Random(4, 40, gateset.IBMEagle.Gates, rng)
	adopted, adoptErr, ok := w2.Exchange(worse, 0, 99)
	if !ok {
		t.Fatal("restarted coordinator did not offer the pre-restart best")
	}
	if adoptErr != 2e-9 || adopted.WriteQASM() != best.WriteQASM() {
		t.Fatalf("adopted (err=%g) is not the pre-restart best", adoptErr)
	}
}

// A data dir written by a guoqd that still had a job queue boots: the
// push, lease and complete records of its WAL and the queues object of its
// snapshot are skipped, its sessions come back with their ε and best, and
// the next checkpoint carries no queues.
func TestRestartSkipsJobQueueState(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	best := circuit.Random(3, 20, gateset.IBMEagle.Gates, rng)
	session := func(id string, eps, cost float64) string {
		raw, err := json.Marshal(sessionRecord{
			ID: id, Epsilon: eps, Has: true, Exchanges: 1, Improvements: 1,
			Best:     Solution{Envelope: circuit.Seal(best, 2e-9), Cost: cost},
			LastUsed: time.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	lg, _, err := store.Open(dir, store.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := `{"sessions":[` + session("snap", 1e-8, 7) + `],"queues":{"bench":{` +
		`"pending":[{"job":{"id":"c"},"expires":"0001-01-01T00:00:00Z"}],` +
		`"leased":[{"job":{"id":"a"},"attempts":1,"worker":"w1","expires":"2026-01-02T03:04:05Z"}],` +
		`"results":{"b":{"gates":42}},"failed":["d"]}}}`
	if err := lg.Compact(json.RawMessage(snapshot)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ typ, data string }{
		{"push", `{"queue":"bench","jobs":[{"id":"e"},{"id":"f","payload":"p"}]}`},
		{"lease", `{"queue":"bench","id":"e","worker":"w2","attempts":1,"expires":"2026-01-02T03:05:05Z"}`},
		{"session", session("wal", 1e-4, 5)},
		{"complete", `{"queue":"bench","id":"e","result":{"gates":17}}`},
	} {
		if _, err := lg.Append(r.typ, json.RawMessage(r.data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _ := openDurable(t, dir, ServerOptions{})
	if srv.recoveredSessions != 2 {
		t.Fatalf("recovered %d sessions, want 2", srv.recoveredSessions)
	}
	if got := srv.Registry().Snapshot()["guoqd_sessions_recovered_total"]; got != 2 {
		t.Fatalf("guoqd_sessions_recovered_total = %g, want 2", got)
	}
	for id, want := range map[string]SessionStatus{
		"snap": {Epsilon: 1e-8, BestCost: 7, BestErr: 2e-9, Exchanges: 1, Improvements: 1},
		"wal":  {Epsilon: 1e-4, BestCost: 5, BestErr: 2e-9, Exchanges: 1, Improvements: 1},
	} {
		srv.mu.Lock()
		ss := srv.sessions[id]
		srv.mu.Unlock()
		if ss == nil {
			t.Fatalf("session %q not restored", id)
		}
		if st := ss.status(); st != want {
			t.Fatalf("session %q = %+v, want %+v", id, st, want)
		}
		if got := ss.record(id, time.Now()).Best.QASM; got != best.WriteQASM() {
			t.Fatalf("session %q best = %q, want the logged circuit", id, got)
		}
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		State map[string]json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.State["queues"]; ok {
		t.Fatalf("checkpoint still carries queues: %s", data)
	}
	if _, ok := env.State["sessions"]; !ok {
		t.Fatalf("checkpoint lost the sessions: %s", data)
	}
}

// A torn WAL tail — the half-written record a crash mid-append leaves —
// is truncated away and everything before it replays.
func TestRestartSurvivesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	srv, hs := openDurable(t, dir, ServerOptions{})
	w := testClient(t, hs.URL, "torn", "w1", 1e-4)
	rng := rand.New(rand.NewSource(9))
	c := circuit.Random(3, 20, gateset.IBMEagle.Gates, rng)
	if _, _, ok := w.Exchange(c, 0, 5); ok {
		t.Fatal("unexpected adoption")
	}
	hs.Close()
	srv.store.Sync()
	srv.store.Close()

	// Crash mid-append: garbage at the WAL tail.
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, _ := openDurable(t, dir, ServerOptions{})
	if srv2.recoveredSessions != 1 {
		t.Fatalf("recovered %d sessions, want 1 (intact prefix must replay)", srv2.recoveredSessions)
	}
	srv2.mu.Lock()
	ss := srv2.sessions["torn"]
	srv2.mu.Unlock()
	if ss == nil || ss.status().Epsilon != 1e-4 {
		t.Fatal("session state lost to the torn tail")
	}
}

// A graceful Close checkpoints: the next boot replays from the snapshot
// with an empty WAL, and state still matches.
func TestCloseCheckpointsAndReopens(t *testing.T) {
	dir := t.TempDir()
	srv, hs := openDurable(t, dir, ServerOptions{})
	w := testClient(t, hs.URL, "snap", "w1", 1e-8)
	rng := rand.New(rand.NewSource(5))
	c := circuit.Random(3, 20, gateset.IBMEagle.Gates, rng)
	if _, _, ok := w.Exchange(c, 0, 7); ok {
		t.Fatal("unexpected adoption")
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not compacted at Close: size=%v err=%v", fi.Size(), err)
	}

	srv2, hs2 := openDurable(t, dir, ServerOptions{})
	if srv2.recoveredSessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.recoveredSessions)
	}
	w2 := testClient(t, hs2.URL, "snap", "w2", 1e-8)
	adopted, _, ok := w2.Exchange(circuit.Random(3, 30, gateset.IBMEagle.Gates, rng), 0, 99)
	if !ok || adopted.WriteQASM() != c.WriteQASM() {
		t.Fatalf("snapshot-recovered session did not offer its best (ok=%v)", ok)
	}
}
