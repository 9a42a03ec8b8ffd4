package dist

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
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
//
// Both body readers, readBody and Client.decodeResponse, must also agree
// with their encoding/json references (reference_test.go) on every input
// and each of the four wire types: the same acceptance, the same status
// and error text, and the same value, whether or not the one-pass reader
// took the body.
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
	// What a dist.Client and the server send: json.Marshal output of each
	// wire type around a 1,000-gate circuit, replies newline-terminated.
	qasm := circuit.Random(8, 1000, gateset.IBMEagle.Gates, rand.New(rand.NewSource(3))).WriteQASM()
	best := Solution{Envelope: circuit.Envelope{QASM: qasm, Err: 3e-9}, Cost: 42}
	for _, v := range []any{
		SubmitRequest{QASM: qasm, Target: "ibm-eagle", Objective: "2q", Epsilon: 1e-8, Worker: "w"},
		ExchangeRequest{Session: "0123456789abcdef", Worker: "w", Epsilon: 1e-8, Best: best},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "")
		f.Add(gzipBytes(f, string(body)), "gzip")
	}
	for _, v := range []any{
		SubmitResponse{Cached: true, Session: "0123456789abcdef", Best: best},
		ExchangeResponse{Adopt: true, Best: best},
	} {
		body, err := marshalReply(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "")
		f.Add(gzipBytes(f, string(body)), "gzip")
	}
	// One body per class the one-pass reader hands to encoding/json: a key
	// in another case, an unknown key, null, \u escapes, raw and invalid
	// UTF-8, repeated keys (encoding/json merges two "best" objects), a
	// leading zero, a number out of range, negative zero (which it reads),
	// whitespace around every token, trailing bytes and a cut string.
	for _, body := range []string{
		`{"QASM":"qreg q[1];\n","target":"nam","objective":"2q","epsilon":1e-8}`,
		`{"session":"s","best":{"qasm":"","Err":1,"cost":2}}`,
		`{"adopt":true,"best":{"qasm":"h q[0];\n","err":0,"cost":1},"extra":[1,{"a":null}]}`,
		`{"cached":null,"session":"s","best":null}`,
		`{"session":"\u0041","worker":"w\u2028","best":{"qasm":"\ud83d\ude00"}}`,
		"{\"session\":\"caf\xc3\xa9\",\"worker\":\"\xe2\x80\xa8\",\"best\":{\"qasm\":\"\xff\xfe\"}}",
		`{"session":"a","worker":"w","session":"b","epsilon":1,"epsilon":2}`,
		`{"cached":true,"best":{"qasm":"a","err":1},"session":"s","best":{"cost":2},"cached":false}`,
		`{"adopt":true,"best":{"qasm":"a","err":1},"best":{"cost":2}}`,
		`{"epsilon":01}`,
		`{"best":{"err":1e999}}`,
		`{"epsilon":-0,"best":{"qasm":"","err":-0.0,"cost":-0e5}}`,
		` { "cached" : true , "session" : "s" , "best" : { "qasm" : "q" , "err" : 0 , "cost" : 1 } } `,
		"{\"adopt\":false,\"best\":{\"qasm\":\"\",\"err\":0,\"cost\":0}}\n{}",
		`{"session":"s","best":{"qasm":"qreg q[1];\nh q`,
		`{"cached":tru}`,
		`{"adopt":1,"best":{"cost":-}}`,
		`{"qasm":"a\tb\"c\\d\/e\bf\fg\rh","target":"t","objective":"o","epsilon":2.5E+3}`,
	} {
		f.Add([]byte(body), "")
	}

	gzipReq := httptest.NewRequest(http.MethodPost, "/", nil)
	gzipReq.Header.Set("Accept-Encoding", "gzip")
	plain := func(v any) []byte {
		rec := httptest.NewRecorder()
		writeReply(rec, nil, v)
		return rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte, encoding string) {
		matchesReference(t, body, encoding)
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

// matchesReference decodes body into a fresh value of each wire type with
// readBody and with Client.decodeResponse, and beside each with its
// reference, and fails t unless every pair agrees: in acceptance, in the
// status and error text, and in the value, even a partly decoded one.
// Values are compared by their %#v text, which prints each float in the
// shortest form that parses back to its bits (so -0 differs from 0) and
// each string with its invalid UTF-8 bytes escaped.
func matchesReference(t *testing.T, body []byte, encoding string) {
	t.Helper()
	response := func() *http.Response {
		h := http.Header{}
		if encoding != "" {
			h.Set("Content-Encoding", encoding)
		}
		return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(body))}
	}
	for _, mk := range []func() any{
		func() any { return &SubmitRequest{} },
		func() any { return &SubmitResponse{} },
		func() any { return &ExchangeRequest{} },
		func() any { return &ExchangeResponse{} },
	} {
		got, want := mk(), mk()
		rec, ref := httptest.NewRecorder(), httptest.NewRecorder()
		ok, refOK := readBody(rec, postBody(body, encoding), got), refReadBody(ref, postBody(body, encoding), want)
		if ok != refOK || rec.Code != ref.Code || !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("%T: readBody: accepted %v, %d %q; reference: accepted %v, %d %q",
				got, ok, rec.Code, rec.Body.Bytes(), refOK, ref.Code, ref.Body.Bytes())
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("readBody decoded\n%.300s\nreference:\n%.300s", g, w)
		}
		got, want = mk(), mk()
		err, refErr := new(Client).decodeResponse(response(), got), refDecodeResponse(response(), want)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%T: decodeResponse: error %v; reference: %v", got, err, refErr)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("decodeResponse decoded\n%.300s\nreference:\n%.300s", g, w)
		}
	}
}
