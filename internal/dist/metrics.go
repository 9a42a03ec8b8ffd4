package dist

import (
	"net/http"
	"strconv"
	"time"

	"github.com/guoq-dev/guoq/internal/obs"
)

// serverMetrics is the coordinator's pre-resolved instrument bundle.
// Counters are incremented by the handlers; fleet-state values (cache
// size, live sessions, uptime) are gauge functions that read the server's
// state at scrape time, so they need no bookkeeping on the request paths.
type serverMetrics struct {
	requests          *obs.CounterVec   // {path, code}
	requestSeconds    *obs.HistogramVec // {path}
	publishes         *obs.Counter
	adoptions         *obs.Counter
	cacheHits         *obs.Counter
	cacheMisses       *obs.Counter
	quotaRejections   *obs.Counter
	storeErrors       *obs.Counter
	sessionsRecovered *obs.Counter
}

// newServerMetrics registers the coordinator families on reg and installs
// the gauge functions over s. The functions take s.mu at scrape time; that
// is safe because the server never writes the registry while holding s.mu.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	sm := &serverMetrics{
		requests:       reg.CounterVec("guoqd_requests_total", "HTTP requests served.", "path", "code"),
		requestSeconds: reg.HistogramVec("guoqd_request_seconds", "HTTP request latency.", nil, "path"),
		publishes:      reg.Counter("guoqd_exchange_publishes_total", "Exchange requests that improved a session's stored best."),
		adoptions:      reg.Counter("guoqd_exchange_adoptions_total", "Exchange responses that offered the session best for adoption."),
		cacheHits:      reg.Counter("guoqd_cache_hits_total", "Submissions answered from the content-addressed result cache."),
		cacheMisses:    reg.Counter("guoqd_cache_misses_total", "Submissions that had to open a search session."),
		quotaRejections: reg.Counter("guoqd_quota_rejections_total",
			"Requests rejected with 429 by the per-token rate limit."),
		storeErrors: reg.Counter("guoqd_store_errors_total",
			"Write-ahead log append or checkpoint failures (state kept in memory)."),
		sessionsRecovered: reg.Counter("guoqd_sessions_recovered_total",
			"Exchange sessions restored from the durable store at boot."),
	}
	reg.GaugeFunc("guoqd_cache_entries", "Entries resident in the result cache.", func() float64 {
		return float64(s.cache.Len())
	})
	reg.GaugeFunc("guoqd_cache_hit_rate", "Result-cache hits / (hits + misses).", func() float64 {
		return s.cache.HitRate()
	})
	reg.GaugeFunc("guoqd_uptime_seconds", "Seconds since the coordinator started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	reg.GaugeFunc("guoqd_sessions_live", "Exchange sessions within their idle TTL.", func() float64 {
		now := s.now()
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, ss := range s.sessions {
			if s.opts.SessionTTL < 0 || now.Sub(ss.lastUsed) <= s.opts.SessionTTL {
				n++
			}
		}
		return float64(n)
	})
	return sm
}

// metricPath maps a request path to a bounded label value: known endpoints
// keep their path, and anything else (scanners, typos) shares a single
// bucket so an attacker cannot grow the registry.
func metricPath(p string) string {
	switch p {
	case "/v1/submit", "/v1/exchange", "/v1/status", "/healthz", "/metrics":
		return p
	}
	return "other"
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// withMetrics counts and times every request, including rejected ones —
// it wraps outside withAuth so 401s are visible in the request series.
func (s *Server) withMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := metricPath(r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		s.sm.requestSeconds.With(path).ObserveSince(t0)
		s.sm.requests.With(path, strconv.Itoa(rec.code)).Inc()
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// clientMetrics mirrors ClientStats into a registry, plus a request
// latency histogram the plain stats cannot carry. All handles may be nil.
type clientMetrics struct {
	exchanges      *obs.Counter
	adoptions      *obs.Counter
	throttled      *obs.Counter
	errors         *obs.Counter
	retries        *obs.Counter
	requestSeconds *obs.HistogramVec // {path}
}

// Instrument mirrors this client's exchange traffic into reg: round trips,
// adoptions, throttles, errors, and per-endpoint request latency. Call it
// before the first request; a nil registry is a no-op.
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.m = clientMetrics{
		exchanges:      reg.Counter("guoq_exchange_roundtrips_total", "Exchange round trips attempted against the coordinator."),
		adoptions:      reg.Counter("guoq_exchange_adoptions_total", "Remote solutions adopted from the coordinator."),
		throttled:      reg.Counter("guoq_exchange_throttled_total", "Exchange calls answered locally by the rate limit."),
		errors:         reg.Counter("guoq_exchange_errors_total", "Failed coordinator round trips (network, HTTP, or decode)."),
		retries:        reg.Counter("guoq_coordinator_retries_total", "Retried attempts on idempotent coordinator requests."),
		requestSeconds: reg.HistogramVec("guoq_coordinator_request_seconds", "Coordinator request latency.", nil, "path"),
	}
}
