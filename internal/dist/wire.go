package dist

import "github.com/guoq-dev/guoq/internal/circuit"

// The HTTP surface of a guoqd coordinator. All request bodies and
// responses are JSON.
//
//	POST /v1/submit         SubmitRequest    -> SubmitResponse
//	POST /v1/exchange       ExchangeRequest  -> ExchangeResponse
//	GET  /v1/status                          -> Status
//	GET  /healthz                            -> "ok"
//
// Bodies may additionally be gzip-compressed (standard Content-Encoding /
// Accept-Encoding negotiation) — see codec.go.

// Solution is a candidate circuit on the wire: QASM text, the accumulated
// ε bound relative to the session's original circuit, and its value under
// the session's cost function. Costs are computed by workers (the server
// never needs the cost function itself — it only compares numbers), which
// requires every session participant to run the same objective.
type Solution struct {
	circuit.Envelope
	Cost float64 `json:"cost"`
}

// SubmitRequest registers an optimization request with the coordinator
// before any search work is spent on it. The server normalizes the circuit
// (QASM parse + re-emit), derives the content address of
// (circuit, target, ε, objective), and answers from the result cache when
// a prior search already paid for an answer; on a miss it opens an
// exchange session bound to that cache slot, so the eventual best feeds
// the cache for the next submitter.
type SubmitRequest struct {
	// QASM is the input circuit, already translated to the target basis
	// (as guoq does before optimizing). Formatting differences are
	// irrelevant: the server canonicalizes before hashing.
	QASM string `json:"qasm"`
	// Target names the gate set the circuit is optimized for.
	Target string `json:"target"`
	// Objective is the cost function name (2q, t, fidelity, gates, ...).
	Objective string `json:"objective"`
	// Epsilon is the global approximation budget ε_f.
	Epsilon float64 `json:"epsilon"`
	// Worker is a free-form identity for logs.
	Worker string `json:"worker,omitempty"`
}

// SubmitResponse answers a submission: a cache hit carries the optimized
// circuit directly, a miss carries the exchange session to join.
type SubmitResponse struct {
	// Cached reports that Best holds a previously computed solution for
	// this exact (circuit, target, ε, objective) — no search needed.
	Cached bool `json:"cached"`
	// Session is the exchange session bound to this request's cache slot.
	Session string `json:"session"`
	// Best is the cached solution (only when Cached).
	Best Solution `json:"best,omitempty"`
}

// ExchangeRequest publishes a worker's best solution to a session and asks
// for the session's best in return.
type ExchangeRequest struct {
	// Session identifies the search this worker participates in. All
	// participants must optimize the same circuit under the same objective
	// and ε budget; SessionID derives a suitable key.
	Session string `json:"session"`
	// Worker is a free-form identity used in logs.
	Worker string `json:"worker,omitempty"`
	// Epsilon is the global error budget ε_f of the search. The first
	// exchange of a session fixes the session's budget; the server rejects
	// published solutions whose Err exceeds it.
	Epsilon float64  `json:"epsilon"`
	Best    Solution `json:"best"`
}

// ExchangeResponse carries the session's best back when it strictly beats
// the caller's published solution.
type ExchangeResponse struct {
	Adopt bool     `json:"adopt"`
	Best  Solution `json:"best,omitempty"`
}

// SessionStatus summarizes one exchange session.
type SessionStatus struct {
	Epsilon      float64 `json:"epsilon"`
	BestCost     float64 `json:"best_cost"`
	BestErr      float64 `json:"best_err"`
	Exchanges    int     `json:"exchanges"`
	Improvements int     `json:"improvements"`
}

// Status is the coordinator-wide view returned by GET /v1/status.
// LiveSessions and UptimeSeconds were added after the first release; older
// servers simply omit them (new fields only, the wire struct stays
// backward-compatible).
type Status struct {
	Sessions map[string]SessionStatus `json:"sessions"`
	// LiveSessions counts exchange sessions within their idle TTL.
	LiveSessions int `json:"live_sessions,omitempty"`
	// UptimeSeconds is the time since the coordinator started.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// CacheEntries / CacheHits / CacheMisses / CacheHitRate describe the
	// content-addressed result cache behind /v1/submit. Like LiveSessions
	// these are additive fields: older servers omit them.
	CacheEntries int     `json:"cache_entries,omitempty"`
	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}
