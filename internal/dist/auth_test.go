package dist_test

import (
	"net/http"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/gate"
)

// TestTokenAuthHTTP pins the raw HTTP contract: with a token configured,
// /v1/ endpoints demand the bearer token (401 otherwise) while /healthz
// stays open for probes and load balancers.
func TestTokenAuthHTTP(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{Token: "sesame"})

	get := func(path, auth string) int {
		req, err := http.NewRequest(http.MethodGet, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, auth, body string) int {
		req, err := http.NewRequest(http.MethodPost, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz without token = %d, want 200 (must stay open)", code)
	}
	if code := get("/v1/status", ""); code != http.StatusUnauthorized {
		t.Fatalf("status without token = %d, want 401", code)
	}
	if code := get("/v1/status", "Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("status with wrong token = %d, want 401", code)
	}
	if code := get("/v1/status", "Bearer sesame"); code != http.StatusOK {
		t.Fatalf("status with token = %d, want 200", code)
	}
	if code := post("/v1/exchange", "", `{"session":"s"}`); code != http.StatusUnauthorized {
		t.Fatalf("exchange without token = %d, want 401", code)
	}
	if code := post("/v1/exchange", "sesame", `{"session":"s"}`); code != http.StatusUnauthorized {
		t.Fatalf("exchange with malformed auth header = %d, want 401", code)
	}
	if code := post("/v1/exchange", "Bearer sesame", `{"session":"s"}`); code != http.StatusOK {
		t.Fatalf("exchange with token = %d, want 200", code)
	}
}

// TestTokenAuthClient: a Client with the matching Token works end to end
// (exchange and submit); one without degrades gracefully — exchanges
// count as errors rather than panics, and the worker keeps optimizing
// alone.
func TestTokenAuthClient(t *testing.T) {
	_, hs := newLoopback(t, dist.ServerOptions{Token: "sesame"})

	c := circuit.New(1)
	c.Append(gate.NewH(0))

	authed := client(t, hs, "sess", "w1", 1e-8)
	authed.Token = "sesame"
	if _, _, ok := authed.Exchange(c, 0, 10); ok {
		t.Fatal("first exchange should have nothing to adopt")
	}
	if st := authed.Stats(); st.Errors != 0 || st.Exchanges != 1 {
		t.Fatalf("authed stats = %+v, want 1 clean exchange", st)
	}
	if resp, err := authed.Submit(c, "nam", "2q", 1e-8); err != nil || resp.Session == "" {
		t.Fatalf("authed submit = (%+v, %v), want a session", resp, err)
	}

	anon := client(t, hs, "sess", "w2", 1e-8)
	anon.MinInterval = -1
	if _, _, ok := anon.Exchange(c, 0, 10); ok {
		t.Fatal("unauthenticated exchange adopted a solution")
	}
	if st := anon.Stats(); st.Errors != 1 {
		t.Fatalf("anon stats = %+v, want the rejected exchange counted as an error", st)
	}
	if _, err := anon.Submit(c, "nam", "2q", 1e-8); err == nil {
		t.Fatal("unauthenticated submit succeeded")
	}
}
