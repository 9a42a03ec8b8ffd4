package dist

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/store"
)

// restoreSessions replays a snapshot holding one session per id, each last
// used at the given time, into s.
func restoreSessions(t *testing.T, s *Server, lastUsed map[string]time.Time) {
	t.Helper()
	var st serverState
	for id, at := range lastUsed {
		st.Sessions = append(st.Sessions, sessionRecord{ID: id, Epsilon: 1e-8, LastUsed: at})
	}
	snap, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.restore(&store.Recovery{Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
}

func (s *Server) sessionIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestSessionSweepExpiresTouchedAndRestored: skipping sweeps before the
// earliest expiry keeps the TTL contract to the nanosecond, for a session
// kept alive by touches and for one restored with an old LastUsed.
func TestSessionSweepExpiresTouchedAndRestored(t *testing.T) {
	clock := newFakeClock()
	s := NewServer(ServerOptions{SessionTTL: time.Minute})
	s.now = clock.Now
	t0 := clock.Now()
	restoreSessions(t, s, map[string]time.Time{"old": t0.Add(-50 * time.Second)})

	s.session("a", 1e-8) // sweeps: "old" expires after t0+10s
	clock.Advance(10 * time.Second)
	s.session("a", 1e-8) // "old" is idle exactly the TTL: kept
	if !s.hasSession("old") {
		t.Fatal("restored session collected at exactly its TTL")
	}
	clock.Advance(time.Nanosecond)
	s.session("a", 1e-8)
	if s.hasSession("old") {
		t.Fatal("restored session with an old LastUsed survived past its TTL")
	}

	touched := clock.Now()
	clock.Advance(time.Minute)
	s.session("b", 1e-8)
	if !s.hasSession("a") {
		t.Fatal("touched session collected at exactly its TTL")
	}
	clock.Advance(time.Nanosecond)
	s.session("b", 1e-8)
	if s.hasSession("a") {
		t.Fatalf("session touched at %v survived past its TTL", touched)
	}
}

// TestSessionSweepClockSteppedBack: a session restored with a LastUsed
// ahead of the clock (the wall clock stepped back across a restart) must
// not delay the expiry of sessions created after it.
func TestSessionSweepClockSteppedBack(t *testing.T) {
	clock := newFakeClock()
	s := NewServer(ServerOptions{SessionTTL: time.Minute})
	s.now = clock.Now
	restoreSessions(t, s, map[string]time.Time{"ahead": clock.Now().Add(time.Hour)})
	s.session("a", 1e-8)
	clock.Advance(time.Minute + time.Nanosecond)
	s.session("b", 1e-8)
	if s.hasSession("a") {
		t.Fatal("a session created after one restored ahead of the clock survived past its TTL")
	}
	if !s.hasSession("ahead") {
		t.Fatal("the session restored ahead of the clock was collected")
	}
}

// TestSessionSweepMatchesFullSweep drives a server through seeded touches,
// creations and status polls, with sessions restored at assorted ages and
// a clock that sometimes steps back, and checks after every step that the
// live sessions are exactly those a sweep of every session on every access
// would keep.
func TestSessionSweepMatchesFullSweep(t *testing.T) {
	const ttl = time.Minute
	clock := newFakeClock()
	s := NewServer(ServerOptions{SessionTTL: ttl})
	s.now = clock.Now
	model := map[string]time.Time{}
	for i, idle := range []time.Duration{0, ttl / 2, ttl, ttl + 1, 10 * ttl} {
		model[fmt.Sprintf("r%d", i)] = clock.Now().Add(-idle)
	}
	restoreSessions(t, s, model)
	sweep := func(now time.Time) {
		for id, at := range model {
			if now.Sub(at) > ttl {
				delete(model, id)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 3000; step++ {
		d := time.Duration(rng.Int63n(int64(ttl / 4)))
		if rng.Intn(20) == 0 {
			d = -d
		}
		clock.Advance(d)
		now := clock.Now()
		if rng.Intn(4) == 0 { // a status poll sweeps without touching
			s.mu.Lock()
			s.sweepSessionsLocked(now)
			s.mu.Unlock()
			sweep(now)
		} else {
			id := fmt.Sprintf("s%d", rng.Intn(16))
			s.session(id, 1e-8)
			sweep(now)
			model[id] = now
		}
		var want []string
		for id := range model {
			want = append(want, id)
		}
		sort.Strings(want)
		if got := s.sessionIDs(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: live sessions %v, full sweep keeps %v", step, got, want)
		}
	}
}
