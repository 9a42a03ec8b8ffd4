package dist

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// gzipBytes compresses s as one gzip member.
func gzipBytes(tb testing.TB, s string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(s)); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// postBody builds a request carrying body under the given Content-Encoding
// (none when empty).
func postBody(body []byte, encoding string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	return req
}

// FuzzReadBody feeds arbitrary bytes, under an arbitrary Content-Encoding,
// to the body reader every POST endpoint shares, decoding into each
// request type in turn. It must never panic, must answer every rejection
// with a 4xx and write nothing on acceptance. An accepted value must come
// back unchanged through writeReply (gzipped past the compression floor)
// and readBody again: its plain JSON encoding is a fixpoint of the pair.
func FuzzReadBody(f *testing.F) {
	const (
		exchange = `{"session":"s1","worker":"w1","epsilon":1e-8,"best":{"qasm":"qreg q[1];\nh q[0];\n","err":1e-9,"cost":3}}`
		submit   = `{"qasm":"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n","target":"nam","objective":"2q","epsilon":1e-8,"worker":"w"}`
	)
	// One well-formed body per request type, plain and gzipped.
	f.Add([]byte(exchange), "")
	f.Add(gzipBytes(f, exchange), "gzip")
	f.Add([]byte(submit), "")
	f.Add(gzipBytes(f, submit), "gzip")
	// Past the compression floor the reply itself comes back gzipped.
	big := `{"session":"s","best":{"qasm":"qreg q[1];\n` + strings.Repeat(`h q[0];\n`, 200) + `","cost":200}}`
	f.Add([]byte(big), "")
	f.Add(gzipBytes(f, big), "gzip")
	// Re-encoding compacts whitespace, normalizes exponents, drops unknown
	// fields and escapes HTML.
	f.Add([]byte(`{ "session" : "s" , "best" : { "qasm" : "qreg q[1];\n" , "err" : 2.5E-3 , "cost" : 1e2 } , "jobs" : [ {"id":"a"}, null, [1, 2.5e3] ] }`), "")
	f.Add([]byte(`{"qasm":"<b>&</b>","target":"nam","objective":"2q","worker":"<w>"}`), "")
	// Degenerate and ill-typed JSON.
	f.Add([]byte{}, "")
	f.Add([]byte("null"), "")
	f.Add([]byte(`{"epsilon":"1e-8"}`), "")
	f.Add([]byte(`{"session":"s","best":{"qasm":["h q[0];"],"cost":"3"}}`), "")
	f.Add([]byte(`{"epsilon":1e999}`), "")
	f.Add([]byte(`{"session":"s","epsilon":-5,"best":{"err":-1e-9,"cost":-5}}`), "")
	f.Add([]byte(`{"epsilon":9223372036854775808,"best":{"cost":-9223372036854775809}}`), "")
	f.Add([]byte("{\"session\":\"\xff\xfe\",\"worker\":\"\\ud800\"}"), "") // decodes to U+FFFD
	f.Add([]byte(`{"session":"a","session":"b"}{"trailing":true}`), "")
	f.Add([]byte(`{"result":`+strings.Repeat("[", 10001)+strings.Repeat("]", 10001)+`}`), "")
	// Broken or mislabeled gzip framing.
	f.Add([]byte{}, "gzip")
	f.Add(gzipBytes(f, exchange)[:20], "gzip")
	f.Add(append(gzipBytes(f, `{"session":"a"}`), gzipBytes(f, `{"session":"b"}`)...), "gzip")
	f.Add([]byte("\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xffnot deflate"), "gzip")
	f.Add([]byte(`{"session":"s"}`), "gzip")
	f.Add(gzipBytes(f, `{"session":"s"}`), "")
	f.Add([]byte(`{"session":"s"}`), "x-gzip, identity")
	// The retired binary envelope framing.
	f.Add(binaryFrame("s", "w", 1e-8, "qreg q[1];", 0.0, 1.0), "")
	f.Add(binaryFrame("qreg q[1];", "nam", "2q", 1e-8, "w"), "")

	gzipReq := httptest.NewRequest(http.MethodPost, "/", nil)
	gzipReq.Header.Set("Accept-Encoding", "gzip")
	plain := func(v any) []byte {
		rec := httptest.NewRecorder()
		writeReply(rec, nil, v)
		return rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte, encoding string) {
		for _, mk := range []func() any{
			func() any { return &ExchangeRequest{} },
			func() any { return &SubmitRequest{} },
		} {
			v := mk()
			rec := httptest.NewRecorder()
			if !readBody(rec, postBody(body, encoding), v) {
				if rec.Code < 400 || rec.Code >= 500 {
					t.Fatalf("%T: rejected with status %d, want 4xx", v, rec.Code)
				}
				continue
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("%T: accepted body but wrote %q", v, rec.Body.Bytes())
			}
			reply := httptest.NewRecorder()
			writeReply(reply, gzipReq, v)
			v2 := mk()
			back := httptest.NewRecorder()
			if !readBody(back, postBody(reply.Body.Bytes(), reply.Header().Get("Content-Encoding")), v2) {
				t.Fatalf("%T: reply does not read back: %s", v, back.Body.Bytes())
			}
			if first, second := plain(v), plain(v2); !bytes.Equal(first, second) {
				t.Fatalf("%T: encoding is not a round-trip fixpoint\n first: %s\nsecond: %s", v, first, second)
			}
		}
	})
}

// FuzzSubmitMatchesCanonical submits arbitrary text under an arbitrary
// target and objective. Every reply's status, Cached, Session and Best,
// and its bytes, must equal submitHarness's oracle, which parses and
// canonicalizes the text before it computes the key. First a result is
// published under every key the text could reach: that of the request
// itself, of its canonical text, and, when the text holds a NUL, of the
// request whose target takes over what follows the first NUL, which has
// the digest of the text as sent.
func FuzzSubmitMatchesCanonical(f *testing.F) {
	canonical := circuit.Random(3, 12, gateset.IBMEagle.Gates, rand.New(rand.NewSource(7))).WriteQASM()
	f.Add(canonical, "ibm-eagle", "2q")
	f.Add("// a comment\n"+strings.ReplaceAll(canonical, "\n", "\n\n"), "ibm-eagle", "2q")
	f.Add(canonical+"\x00ibm", "eagle", "2q")         // the digest of (canonical, "ibm\x00eagle")
	f.Add("qreg q[1];\nrz(1e-3) q[0];\n", "nam", "t") // not canonical: no header, %g angle
	f.Add("", "ibm-eagle", "2q")
	f.Add("qreg q[1];\nh q[0];\n", "", "2q")
	f.Fuzz(func(t *testing.T, text, target, objective string) {
		const eps = 1e-8
		sh := newSubmitHarness(t, ServerOptions{})
		reqs := []SubmitRequest{{QASM: text, Target: target, Objective: objective, Epsilon: eps}}
		if c, err := circuit.ParseQASM(text); err == nil {
			reqs = append(reqs, SubmitRequest{QASM: c.WriteQASM(), Target: target, Objective: objective, Epsilon: eps})
		}
		if head, tail, ok := strings.Cut(text, "\x00"); ok {
			reqs = append(reqs, SubmitRequest{QASM: head, Target: tail + "\x00" + target, Objective: objective, Epsilon: eps})
		}
		for i, req := range reqs {
			if key := sh.submit(req, true); key != "" {
				sh.publish(key, eps, rzChain(i+1), float64(len(reqs)-i))
			}
		}
		for _, req := range reqs {
			sh.submit(req, true)
			sh.submit(req, false)
		}
		sh.checkCounters()
	})
}
