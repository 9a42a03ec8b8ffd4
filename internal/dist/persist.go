package dist

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/guoq-dev/guoq/internal/store"
)

// Durability: when ServerOptions.DataDir is set (use OpenServer), every
// state change the coordinator must survive a restart with — session
// creation and stored improvements — is appended to a write-ahead log
// before the response goes out, and the full state is periodically
// snapshotted so the log stays short. Replay on boot reconstructs sessions
// with their ε budgets and best-so-far.
//
// recSession is the one record type in the WAL: a full upsert of one
// session (sessionRecord), so replay after a crash anywhere is safe.
const recSession = "session"

// compactEvery bounds WAL growth between snapshots: once this many records
// accumulate, the checkpoint goroutine folds them into a snapshot.
const compactEvery = 4096

// sessionRecord is the durable form of one exchange session.
type sessionRecord struct {
	ID           string    `json:"id"`
	Epsilon      float64   `json:"epsilon"`
	Has          bool      `json:"has,omitempty"`
	Best         Solution  `json:"best,omitempty"`
	Exchanges    int       `json:"exchanges,omitempty"`
	Improvements int       `json:"improvements,omitempty"`
	LastUsed     time.Time `json:"last_used"`
	// CacheKey binds the session to its result-cache slot (set by
	// /v1/submit) so improvements keep feeding the cache across restarts.
	CacheKey string `json:"cache_key,omitempty"`
}

// serverState is the snapshot payload handed to store.Log.Compact.
type serverState struct {
	Sessions []sessionRecord `json:"sessions,omitempty"`
}

// OpenServer builds a coordinator like NewServer and, when opts.DataDir is
// set, attaches the durable store: prior state is replayed before the
// server takes traffic, and a background checkpointer compacts the WAL.
// Callers owning an OpenServer must Close it.
func OpenServer(opts ServerOptions) (*Server, error) {
	s := NewServer(opts)
	if opts.DataDir == "" {
		return s, nil
	}
	lg, rec, err := store.Open(opts.DataDir, store.Options{SyncEvery: opts.SyncEvery})
	if err != nil {
		return nil, err
	}
	if err := s.restore(rec); err != nil {
		lg.Close()
		return nil, fmt.Errorf("dist: replaying %s: %w", opts.DataDir, err)
	}
	if rec.TornTail {
		s.logf("store: truncated a torn WAL tail (interrupted append)")
	}
	s.store = lg
	s.checkpointCh = make(chan struct{}, 1)
	s.checkpointDone = make(chan struct{})
	go s.checkpointLoop()
	return s, nil
}

// restore rebuilds in-memory state from a snapshot plus WAL records. It
// runs before the server serves traffic (and never re-appends what it
// replays); it still holds mu so the state writes satisfy the usual
// locking discipline at no contention cost.
func (s *Server) restore(rec *store.Recovery) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Snapshot != nil {
		var st serverState
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			return fmt.Errorf("corrupt snapshot: %w", err)
		}
		for _, sr := range st.Sessions {
			s.sessions[sr.ID] = sessionFromRecord(sr)
		}
	}
	for _, r := range rec.Records {
		if err := s.applyRecordLocked(r); err != nil {
			return fmt.Errorf("record %d (%s): %w", r.LSN, r.Type, err)
		}
	}
	s.recoveredSessions = len(s.sessions)
	s.sm.sessionsRecovered.Add(int64(s.recoveredSessions))
	if s.recoveredSessions > 0 {
		s.logf("store: recovered %d sessions", s.recoveredSessions)
	}
	return nil
}

func sessionFromRecord(sr sessionRecord) *session {
	return &session{
		epsilon:      sr.Epsilon,
		best:         sr.Best,
		has:          sr.Has,
		exchanges:    sr.Exchanges,
		improvements: sr.Improvements,
		lastUsed:     sr.LastUsed,
		cacheKey:     sr.CacheKey,
	}
}

// applyRecordLocked replays one WAL record onto the in-memory state.
// Caller (restore) holds s.mu.
func (s *Server) applyRecordLocked(r store.Record) error {
	switch r.Type {
	case recSession:
		var sr sessionRecord
		if err := json.Unmarshal(r.Data, &sr); err != nil {
			return err
		}
		s.sessions[sr.ID] = sessionFromRecord(sr)
	default:
		// Unknown record types are skipped: a newer guoqd wrote them, or an
		// older one logged its job queue. This one restores what it
		// understands.
	}
	return nil
}

// record snapshots a session into its durable form. lastUsed is passed in
// because it is guarded by the Server's lock, not the session's.
func (ss *session) record(id string, lastUsed time.Time) sessionRecord {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return sessionRecord{
		ID:           id,
		Epsilon:      ss.epsilon,
		Has:          ss.has,
		Best:         ss.best,
		Exchanges:    ss.exchanges,
		Improvements: ss.improvements,
		LastUsed:     lastUsed,
		CacheKey:     ss.cacheKey,
	}
}

// persistSession appends a full upsert of one session to the WAL (no-op
// without a store) and nudges the checkpointer once enough records
// accumulate. Append errors are logged, not fatal: the coordinator keeps
// serving from memory and the operator sees the disk problem in the log
// and the error counter.
func (s *Server) persistSession(id string, ss *session) {
	if s.store == nil {
		return
	}
	if _, err := s.store.Append(recSession, ss.record(id, s.now())); err != nil {
		s.sm.storeErrors.Inc()
		s.logf("store: append %s: %v", recSession, err)
		return
	}
	if s.store.SinceCompact() >= compactEvery {
		select {
		case s.checkpointCh <- struct{}{}:
		default:
		}
	}
}

// checkpointLoop folds the WAL into a snapshot when nudged by record
// volume, on a slow timer, and once more at Close.
func (s *Server) checkpointLoop() {
	defer close(s.checkpointDone)
	every := s.opts.CheckpointEvery
	if every <= 0 {
		every = time.Minute
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.checkpointCh:
		case <-t.C:
			if s.store.SinceCompact() == 0 {
				continue
			}
		case <-s.closeCh:
			return
		}
		if err := s.Checkpoint(); err != nil {
			s.sm.storeErrors.Inc()
			s.logf("store: checkpoint: %v", err)
		}
	}
}

// snapshotState marshals the full coordinator state for a snapshot. Each
// session keeps its own idle clock: its lastUsed is read under s.mu while
// the map is copied.
func (s *Server) snapshotState() serverState {
	type entry struct {
		ss       *session
		lastUsed time.Time
	}
	s.mu.Lock()
	sessions := make(map[string]entry, len(s.sessions))
	for id, ss := range s.sessions {
		sessions[id] = entry{ss, ss.lastUsed}
	}
	s.mu.Unlock()
	var st serverState
	for id, e := range sessions {
		st.Sessions = append(st.Sessions, e.ss.record(id, e.lastUsed))
	}
	return st
}

// Checkpoint writes a snapshot of the full coordinator state and compacts
// the WAL behind it. No-op without a store.
func (s *Server) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	return s.store.Compact(s.snapshotState())
}

// Close stops the checkpointer, takes a final snapshot, and closes the
// durable store. Safe to call on a server without one, and idempotent.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	var err error
	s.closeOnce.Do(func() {
		close(s.closeCh)
		<-s.checkpointDone
		if cerr := s.Checkpoint(); cerr != nil {
			err = cerr
		}
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}
