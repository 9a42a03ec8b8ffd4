package dist

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/obs"
	"github.com/guoq-dev/guoq/internal/store"
)

// maxBodyBytes bounds a request body: a QASM circuit of ~100k gates is a
// few MB, so 64 MB leaves ample headroom without letting a client exhaust
// the coordinator's memory.
const maxBodyBytes = 64 << 20

// ServerOptions tunes a coordinator server. The zero value is usable.
type ServerOptions struct {
	// SessionTTL bounds how long an idle exchange session is retained: a
	// session with no exchange traffic for the TTL is garbage collected, so
	// a long-lived guoqd does not grow without bound as searches come and
	// go. Status polling does not count as activity. A worker that outlives
	// its session's TTL transparently recreates it (losing only the stored
	// best, which the worker republishes at its next exchange). Zero
	// selects the default of 30 min; negative disables GC.
	SessionTTL time.Duration
	// Token, when non-empty, requires every /v1/ request (submit, exchange
	// and status alike) to carry "Authorization: Bearer <token>"; requests
	// without it get 401. /healthz stays open so load balancers and Dial's
	// reachability probe keep working. The comparison is constant-time.
	// Empty leaves the coordinator open (trusted networks, tests). Multiple
	// acceptable tokens may be given comma-separated — one per tenant —
	// which is what makes per-token quotas meaningful.
	Token string
	// DataDir, when non-empty, makes coordinator state durable (use
	// OpenServer): sessions are write-ahead logged under this directory,
	// snapshotted periodically, and replayed on boot; the result cache
	// spills there too. Empty keeps everything in memory.
	DataDir string
	// SyncEvery is the WAL fsync batching cadence (see store.Options).
	SyncEvery time.Duration
	// CheckpointEvery is the snapshot/compaction timer (default 1 min);
	// record volume can trigger checkpoints earlier.
	CheckpointEvery time.Duration
	// CacheEntries / CacheBytes bound the content-addressed result cache
	// behind /v1/submit (0 = 4096 entries / 256 MB). A negative
	// CacheEntries disables the cache entirely.
	CacheEntries int
	CacheBytes   int64
	// QuotaRate, when positive, rate-limits /v1/ requests per token (or
	// per remote address on an open server) with a token bucket: QuotaRate
	// requests/second with bursts of QuotaBurst (0 = 2×rate). Rejections
	// get 429 with Retry-After.
	QuotaRate  float64
	QuotaBurst float64
	// Logf, when set, receives one line per state-changing request.
	Logf func(format string, args ...any)
	// Metrics, when set, is the registry behind GET /metrics; the server
	// registers its families on it, so a caller can share one registry
	// across subsystems. Nil creates a private registry — /metrics works
	// either way.
	Metrics *obs.Registry
}

// Server is the guoqd coordinator: best-so-far exchange sessions behind a
// content-addressed result cache. It is safe for concurrent use; expose it
// over HTTP with Handler.
type Server struct {
	opts  ServerOptions
	now   func() time.Time // injectable clock for tests
	start time.Time
	reg   *obs.Registry
	sm    *serverMetrics

	// Durability and admission layers; any of these may be nil (memory-only
	// server, cache disabled, no quota).
	store *store.Log
	cache *store.Cache
	quota *store.Limiter

	recoveredSessions int

	checkpointCh   chan struct{}
	checkpointDone chan struct{}
	closeCh        chan struct{}
	closeOnce      sync.Once

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu
	// nextSweep is no later than the earliest time a session can expire:
	// the sweep sets it to its earliest survivor's lastUsed + SessionTTL,
	// and until then no sweep has anything to collect. The zero time
	// means unknown, so the next access sweeps. Guarded by mu.
	nextSweep time.Time
}

// session is one distributed search: every participant optimizes the same
// circuit under the same objective and ε budget.
type session struct {
	mu           sync.Mutex
	epsilon      float64
	best         Solution
	has          bool
	exchanges    int
	improvements int
	// cacheKey, when non-empty, is the content address this session's
	// best feeds (bound by /v1/submit).
	cacheKey string

	// lastUsed is the time of the last exchange touch, guarded by the
	// owning Server's mu (not the session's own).
	lastUsed time.Time
}

// NewServer builds a coordinator server.
func NewServer(opts ServerOptions) *Server {
	if opts.SessionTTL == 0 {
		opts.SessionTTL = 30 * time.Minute
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:     opts,
		now:      time.Now,
		start:    time.Now(),
		reg:      reg,
		quota:    store.NewLimiter(opts.QuotaRate, opts.QuotaBurst),
		closeCh:  make(chan struct{}),
		sessions: map[string]*session{},
	}
	if opts.CacheEntries >= 0 {
		spillDir := ""
		if opts.DataDir != "" {
			spillDir = filepath.Join(opts.DataDir, "cache")
		}
		s.cache = store.NewCache(opts.CacheEntries, opts.CacheBytes, spillDir)
	}
	s.sm = newServerMetrics(reg, s)
	return s
}

// Registry returns the server's metrics registry (the one behind GET
// /metrics) so embedding processes can add their own families to it.
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) session(id string, epsilon float64) *session {
	return s.sessionWithKey(id, epsilon, "")
}

// sessionWithKey gets or creates a session; cacheKey (from /v1/submit)
// binds a new session to its result-cache slot. New sessions are
// persisted immediately so even a best-less session survives a restart
// with its ε budget.
func (s *Server) sessionWithKey(id string, epsilon float64, cacheKey string) *session {
	now := s.now()
	s.mu.Lock()
	s.sweepSessionsLocked(now)
	// The session touched or created here expires at now + SessionTTL,
	// which a clock that stepped back puts before nextSweep.
	if exp := now.Add(s.opts.SessionTTL); exp.Before(s.nextSweep) {
		s.nextSweep = exp
	}
	if ss, ok := s.sessions[id]; ok {
		ss.lastUsed = now
		s.mu.Unlock()
		return ss
	}
	ss := &session{epsilon: epsilon, lastUsed: now, cacheKey: cacheKey}
	s.sessions[id] = ss
	s.mu.Unlock()
	s.logf("session %s created (ε=%g)", id, epsilon)
	s.persistSession(id, ss)
	return ss
}

// sweepSessionsLocked garbage-collects exchange sessions idle for longer
// than SessionTTL. Called with s.mu held on the exchange and status paths.
// It walks the map only once nextSweep has passed, so a busy server with
// many live sessions pays one walk per earliest expiry, not one per access.
func (s *Server) sweepSessionsLocked(now time.Time) {
	if s.opts.SessionTTL < 0 || !now.After(s.nextSweep) {
		return
	}
	s.nextSweep = time.Time{}
	for id, ss := range s.sessions {
		if idle := now.Sub(ss.lastUsed); idle > s.opts.SessionTTL {
			delete(s.sessions, id)
			s.logf("session %s expired (idle %v)", id, idle)
			continue
		}
		if exp := ss.lastUsed.Add(s.opts.SessionTTL); s.nextSweep.IsZero() || exp.Before(s.nextSweep) {
			s.nextSweep = exp
		}
	}
}

// exchange applies the coordinator invariants: store a published solution
// only when it strictly improves the session best, parses, and fits the
// session's ε budget; offer the stored best only to callers strictly
// behind it. The budget check is what preserves BestError ≤ Epsilon across
// migration — a worker can only ever adopt a solution whose bound another
// worker already proved admissible.
func (ss *session) exchange(req ExchangeRequest) (ExchangeResponse, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.exchanges++
	stored := false
	if req.Best.QASM != "" && req.Best.Err <= ss.epsilon && (!ss.has || req.Best.Cost < ss.best.Cost) {
		if _, _, err := req.Best.Open(); err == nil {
			ss.best, ss.has = req.Best, true
			ss.improvements++
			stored = true
		}
	}
	if ss.has && ss.best.Cost < req.Best.Cost {
		return ExchangeResponse{Adopt: true, Best: ss.best}, stored
	}
	return ExchangeResponse{}, stored
}

func (ss *session) status() SessionStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return SessionStatus{
		Epsilon:      ss.epsilon,
		BestCost:     ss.best.Cost,
		BestErr:      ss.best.Err,
		Exchanges:    ss.exchanges,
		Improvements: ss.improvements,
	}
}

// Handler returns the coordinator's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/exchange", s.handleExchange)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /metrics sits outside /v1/ so it stays token-free like /healthz:
	// scrapers and load balancers get fleet state without the shared
	// secret, and the payload carries no circuit data.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Quota sits inside auth: an invalid token is a 401 (and never spends
	// quota budget), a valid one over its rate gets 429 + Retry-After.
	return s.withMetrics(s.withAuth(s.withQuota(mux)))
}

// withAuth gates the API surface behind the shared token(s) when any are
// configured; /healthz (everything outside /v1/) stays open.
func (s *Server) withAuth(next http.Handler) http.Handler {
	if s.opts.Token == "" {
		return next
	}
	var want [][]byte
	for _, t := range strings.Split(s.opts.Token, ",") {
		if t = strings.TrimSpace(t); t != "" {
			want = append(want, []byte(t))
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			pass := false
			for _, t := range want {
				// Compare against every configured token so timing never
				// reveals which one matched.
				if subtle.ConstantTimeCompare([]byte(got), t) == 1 {
					pass = true
				}
			}
			if !ok || !pass {
				httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// withQuota applies the per-token token-bucket rate limit to the /v1/
// surface. Keys are the presented bearer token, or the remote host on an
// open server. Nil limiter (no -quota) passes everything through.
func (s *Server) withQuota(next http.Handler) http.Handler {
	if s.quota == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			key, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if key == "" {
				if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
					key = host
				} else {
					key = r.RemoteAddr
				}
			}
			if ok, retry := s.quota.Allow(key); !ok {
				s.sm.quotaRejections.Inc()
				secs := int(retry/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// ListenAndServe runs the coordinator on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve runs the coordinator on an existing listener.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return srv.Serve(l)
}

// ServeContext runs the coordinator on l until ctx is cancelled, then
// drains gracefully: the listener stops accepting, in-flight requests get
// up to grace (default 5 s) to finish via http.Server.Shutdown, and
// request contexts derive from ctx so handlers observe the shutdown too.
// Returns nil after a clean drain, or the Shutdown error when the grace
// period expires with requests still in flight.
func (s *Server) ServeContext(ctx context.Context, l net.Listener, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// The shutdown grace period must not inherit ctx: ctx is already done
	// (that is why we are shutting down), and Shutdown with a cancelled
	// parent would abort the drain immediately.
	//guoqlint:ignore ctxflow graceful drain outlives the cancelled parent ctx
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed
	return err
}

// handleSubmit is the cache-aware front door: normalize the circuit, hash
// the request, answer instantly on a cache hit, open the bound exchange
// session otherwise.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.QASM == "" || req.Target == "" || req.Objective == "" {
		httpError(w, http.StatusBadRequest, "missing qasm, target, or objective")
		return
	}
	c, err := circuit.ParseQASM(req.QASM)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad circuit: "+err.Error())
		return
	}
	// The QASM round trip is the canonicalizer: whitespace, comments, and
	// parameter formatting collapse, so textual variants of one circuit
	// share a cache slot.
	key := store.CacheKey(c.WriteQASM(), req.Target, req.Objective, req.Epsilon)
	sid := key[:16]
	if e, ok := s.cache.Get(key); ok {
		s.sm.cacheHits.Inc()
		s.logf("submit %s: cache hit (cost %g)", sid, e.Cost)
		writeReply(w, r, &SubmitResponse{
			Cached:  true,
			Session: sid,
			Best:    Solution{Envelope: circuit.Envelope{QASM: e.QASM, Err: e.Err}, Cost: e.Cost},
		})
		return
	}
	if s.cache != nil {
		s.sm.cacheMisses.Inc()
	}
	ss := s.sessionWithKey(sid, req.Epsilon, key)
	// A session created before the cache binding existed (plain exchange
	// traffic, or a pre-cache guoqd's replayed state) adopts the key now.
	ss.mu.Lock()
	rebind := ss.cacheKey == "" && s.cache != nil
	if rebind {
		ss.cacheKey = key
	}
	ss.mu.Unlock()
	if rebind {
		s.persistSession(sid, ss)
	}
	writeReply(w, r, &SubmitResponse{Session: sid})
}

func (s *Server) handleExchange(w http.ResponseWriter, r *http.Request) {
	var req ExchangeRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Session == "" {
		httpError(w, http.StatusBadRequest, "missing session")
		return
	}
	ss := s.session(req.Session, req.Epsilon)
	resp, stored := ss.exchange(req)
	if stored {
		s.sm.publishes.Inc()
		s.persistSession(req.Session, ss)
		// Feed the result cache: the session best is by construction the
		// cheapest ε-admissible solution seen for the bound request.
		if key, e, ok := ss.cacheEntry(); ok {
			s.cache.Put(key, e)
		}
	}
	if resp.Adopt {
		s.sm.adoptions.Inc()
	}
	writeReply(w, r, &resp)
}

// cacheEntry snapshots the session best as a cache entry when the session
// is cache-bound and has one.
func (ss *session) cacheEntry() (string, store.CacheEntry, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.cacheKey == "" || !ss.has {
		return "", store.CacheEntry{}, false
	}
	return ss.cacheKey, store.CacheEntry{QASM: ss.best.QASM, Err: ss.best.Err, Cost: ss.best.Cost}, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := Status{
		Sessions:      map[string]SessionStatus{},
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	now := s.now()
	s.mu.Lock()
	// Status polling sweeps but does not refresh lastUsed: a dashboard
	// watching an abandoned session must not keep it alive forever.
	s.sweepSessionsLocked(now)
	st.LiveSessions = len(s.sessions)
	sessions := make(map[string]*session, len(s.sessions))
	for id, ss := range s.sessions {
		sessions[id] = ss
	}
	s.mu.Unlock()
	for id, ss := range sessions {
		st.Sessions[id] = ss.status()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheEntries = s.cache.Len()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheHitRate = s.cache.HitRate()
	}
	writeReply(w, r, st)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
