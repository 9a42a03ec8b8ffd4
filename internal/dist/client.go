package dist

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/store"
)

// SessionID derives a stable exchange-session key from what must be equal
// across all participants of a distributed search: the circuit being
// optimized, the objective name, and the ε budget. Two guoq processes
// started on the same input with the same flags land in the same session
// without any coordination; different inputs can never cross-pollinate.
func SessionID(c *circuit.Circuit, objective string, epsilon float64) string {
	return store.Digest(epsilon, c.WriteQASM(), objective)[:16]
}

// Client talks to a guoqd coordinator. Its Exchange method implements
// opt.Exchanger, so it plugs into Options.Exchanger (single worker) or
// becomes a Portfolio coordinator's upstream (multi-worker) unchanged.
// Exchange degrades gracefully: any transport or decode error makes it
// report "nothing to adopt" and count the failure, so a worker that loses
// the coordinator keeps optimizing alone.
type Client struct {
	base    string
	hc      *http.Client
	Session string
	Worker  string
	// Epsilon is the search's ε budget, sent with every exchange; the
	// first exchange of a session fixes the session's budget server-side.
	// It is also enforced on adoption: a remote solution whose bound
	// exceeds this client's budget is never handed to the search, even if
	// the session (pinned via -session across runs with different
	// -epsilon) tolerates it.
	Epsilon float64
	// MinInterval rate-limits exchange round trips: a call that neither
	// improves on this client's last published cost nor arrives
	// MinInterval after the previous round trip is answered locally with
	// "nothing to adopt" instead of hitting the network — the GUOQ loop
	// polls every 64 iterations, which is sub-millisecond cadence that no
	// WAN should see. 0 means the 100 ms default; negative disables
	// throttling (tests).
	MinInterval time.Duration
	// Token, when non-empty, is sent as "Authorization: Bearer <token>"
	// with every request — the shared secret of a coordinator started with
	// -token (ServerOptions.Token). Set it before the first request.
	Token string
	// Context, when set, is the base context every HTTP request derives
	// from: cancelling it aborts in-flight submits and exchanges and cuts
	// short a retry's backoff. guoq binds it to its signal context so a
	// SIGINT never leaves a request dangling. Nil means
	// context.Background().
	Context context.Context
	// Gzip compresses request bodies past a size floor. Off by default;
	// any guoqd with this code understands it, and it only pays off on
	// slow links. Replies come back gzipped past their floor either way:
	// Go's HTTP transport asks for gzip on its own and inflates the reply,
	// and with Gzip on the client asks itself and inflates it here.
	Gzip bool
	// Retries bounds the extra attempts made when a request (exchange or
	// submit; both tolerate duplicate delivery) fails with a transient
	// error: a network fault or a 429/502/503/504. Each retry backs off
	// exponentially with jitter, honoring Retry-After on 429. 0 means the
	// default of 2; negative disables retrying.
	Retries int

	// m mirrors the stats into a registry when Instrument was called; its
	// nil handles are no-ops otherwise. Written once before the first
	// request, read without the lock thereafter.
	m clientMetrics

	mu       sync.Mutex
	stats    ClientStats // guarded by mu
	lastSent time.Time   // guarded by mu
	lastCost float64     // guarded by mu
	sentAny  bool        // guarded by mu
}

// ClientStats counts a client's exchange traffic.
type ClientStats struct {
	// Exchanges is the number of attempted exchange round trips.
	Exchanges int
	// Adoptions is how many times the coordinator returned a better
	// solution that decoded cleanly and fit the ε budget.
	Adoptions int
	// Throttled counts exchange calls answered locally by the
	// MinInterval rate limit without a round trip.
	Throttled int
	// Errors counts failed round trips (network, HTTP, or decode).
	Errors int
	// Retries counts retried request attempts.
	Retries int
}

// Dial builds a client for a coordinator address ("host:port" or a full
// http:// URL) and verifies the coordinator answers /healthz.
func Dial(addr, session, worker string) (*Client, error) {
	c := NewClient(addr, session, worker)
	if err := c.Healthy(); err != nil {
		return nil, fmt.Errorf("dist: coordinator %s unreachable: %w", addr, err)
	}
	return c, nil
}

// NewClient builds a client without probing the coordinator (tests, and
// callers that prefer lazy failure).
func NewClient(addr, session, worker string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:    strings.TrimRight(addr, "/"),
		hc:      &http.Client{Timeout: 10 * time.Second},
		Session: session,
		Worker:  worker,
	}
}

// Stats snapshots the exchange counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ctx returns the client's base request context.
func (c *Client) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Healthy probes the coordinator's /healthz endpoint.
func (c *Client) Healthy() error {
	req, err := http.NewRequestWithContext(c.ctx(), http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %s", resp.Status)
	}
	return nil
}

// Exchange implements opt.Exchanger over the wire: publish the best
// solution with its accumulated ε bound, adopt the session best when the
// coordinator offers one and its bound fits this client's ε budget.
func (c *Client) Exchange(best *circuit.Circuit, bestErr, bestCost float64) (*circuit.Circuit, float64, bool) {
	interval := c.MinInterval
	if interval == 0 {
		interval = 100 * time.Millisecond
	}
	c.mu.Lock()
	improved := !c.sentAny || bestCost < c.lastCost
	if !improved && interval > 0 && time.Since(c.lastSent) < interval {
		c.stats.Throttled++
		c.mu.Unlock()
		c.m.throttled.Inc()
		return nil, 0, false
	}
	c.sentAny, c.lastCost, c.lastSent = true, bestCost, time.Now()
	c.stats.Exchanges++
	c.mu.Unlock()
	c.m.exchanges.Inc()
	req := ExchangeRequest{
		Session: c.Session,
		Worker:  c.Worker,
		Epsilon: c.Epsilon,
		Best:    Solution{Envelope: circuit.Seal(best, bestErr), Cost: bestCost},
	}
	var resp ExchangeResponse
	if err := c.post("/v1/exchange", req, &resp); err != nil {
		c.fail()
		return nil, 0, false
	}
	if !resp.Adopt {
		return nil, 0, false
	}
	if resp.Best.Err > c.Epsilon {
		// The session tolerates a larger budget than this run (possible
		// when -session is pinned across runs with different -epsilon);
		// adopting would break this run's BestError ≤ Epsilon contract.
		return nil, 0, false
	}
	adopted, adoptErr, err := resp.Best.Open()
	if err != nil {
		c.fail()
		return nil, 0, false
	}
	c.mu.Lock()
	c.stats.Adoptions++
	c.mu.Unlock()
	c.m.adoptions.Inc()
	return adopted, adoptErr, true
}

func (c *Client) fail() {
	c.mu.Lock()
	c.stats.Errors++
	c.mu.Unlock()
	c.m.errors.Inc()
}

// Submit registers an optimization request with the coordinator. A cache
// hit returns the previously computed best directly (Cached=true); a miss
// returns the exchange session to join, which the caller should store in
// c.Session before exchanging.
func (c *Client) Submit(circ *circuit.Circuit, target, objective string, epsilon float64) (SubmitResponse, error) {
	req := SubmitRequest{
		QASM:      circ.WriteQASM(),
		Target:    target,
		Objective: objective,
		Epsilon:   epsilon,
		Worker:    c.Worker,
	}
	var resp SubmitResponse
	err := c.post("/v1/submit", req, &resp)
	return resp, err
}

// encodeRequest marshals req as JSON, gzipped past the size floor when the
// client has Gzip on, and returns the body plus the Content-Encoding
// header to send.
func (c *Client) encodeRequest(req any) (body []byte, contentEncoding string, err error) {
	if body, err = json.Marshal(req); err != nil {
		return nil, "", err
	}
	if c.Gzip && len(body) >= gzipMinBytes {
		var buf bytes.Buffer
		if err = writeGzip(&buf, body); err != nil {
			return nil, "", err
		}
		body, contentEncoding = buf.Bytes(), "gzip"
	}
	return body, contentEncoding, nil
}

// decodeResponse reads a 200 body, inflating it when the server gzipped it
// in answer to this client's own Accept-Encoding (the transport inflates
// the replies to the header it adds itself). The body goes through
// decodeBody, so a SubmitResponse or ExchangeResponse as the server
// writes it takes the one-pass reader.
func (c *Client) decodeResponse(resp *http.Response, into any) error {
	body := io.Reader(resp.Body)
	if strings.Contains(resp.Header.Get("Content-Encoding"), "gzip") {
		// Manually negotiated Accept-Encoding disables the transport's
		// transparent decompression, so inflate here.
		zr, err := gzip.NewReader(body)
		if err != nil {
			return err
		}
		defer zr.Close()
		body = zr
	}
	return decodeBody(body, into)
}

// httpStatusError is a non-200 reply; it keeps the code (and any
// Retry-After hint) so the retry loop can classify it.
type httpStatusError struct {
	path       string
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *httpStatusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("dist: %s: %s", e.path, e.msg)
	}
	return fmt.Sprintf("dist: %s returned %d", e.path, e.code)
}

// transient reports whether an attempt failed in a way a retry can fix:
// a network fault (but not the caller's own cancellation) or a
// coordinator answering 429/502/503/504. A 429's Retry-After overrides
// the backoff when longer.
func transient(err error) (bool, time.Duration) {
	var se *httpStatusError
	if errors.As(err, &se) {
		switch se.code {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true, se.retryAfter
		}
		return false, 0
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	return true, 0
}

// post sends req to path and decodes the 200 reply into into. An attempt
// that fails transiently is retried, up to Retries times, after a jittered
// exponential backoff: exchange and submit both tolerate duplicate
// delivery (publishing is monotone, and a submit looks up the cache or
// reopens the same session).
func (c *Client) post(path string, req, into any) error {
	attempt := func() error {
		if h := c.m.requestSeconds.With(path); h != nil {
			defer h.Time()()
		}
		body, ce, err := c.encodeRequest(req)
		if err != nil {
			return err
		}
		hreq, err := http.NewRequestWithContext(c.ctx(), http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", contentTypeJSON)
		if ce != "" {
			hreq.Header.Set("Content-Encoding", ce)
		}
		if c.Gzip {
			hreq.Header.Set("Accept-Encoding", "gzip")
		}
		if c.Token != "" {
			hreq.Header.Set("Authorization", "Bearer "+c.Token)
		}
		resp, err := c.hc.Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			e := &httpStatusError{path: path, code: resp.StatusCode}
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				e.retryAfter = time.Duration(secs) * time.Second
			}
			var env struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&env)
			e.msg = env.Error
			return e
		}
		return c.decodeResponse(resp, into)
	}
	retries := c.Retries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	backoff := 100 * time.Millisecond
	for n := 0; ; n++ {
		err := attempt()
		if err == nil {
			return nil
		}
		retry, hint := transient(err)
		if !retry || n >= retries {
			return err
		}
		// Exponential backoff with full jitter; a 429's Retry-After wins
		// when it asks for more patience than the schedule.
		delay := time.Duration(rand.Int63n(int64(backoff))) + backoff/2
		if hint > delay {
			delay = hint
		}
		backoff *= 2
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
		c.m.retries.Inc()
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-c.ctx().Done():
			timer.Stop()
			return err
		}
	}
}
