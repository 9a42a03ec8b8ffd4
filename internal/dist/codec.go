package dist

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Wire codec. Bodies are JSON, gzip-compressed past a size floor when the
// sender chooses (request: Content-Encoding) or the receiver asks
// (response: Accept-Encoding); QASM text compresses ~10×. Negotiation is
// per request, and a request without Accept-Encoding: gzip gets plain
// JSON. Go's HTTP transport sends that header on its own and inflates the
// reply transparently, so a dist.Client gets gzipped replies past the
// floor even with Gzip off.
//
// Decoding reads each body whole into a pooled buffer (decodeBody) and
// decodes the four wire types in one strict pass (strictDecoder) over the
// JSON json.Marshal writes for the text guoq sends: known keys in exact
// case, ASCII strings with the simple escapes, numbers in JSON's grammar,
// and true or false. encoding/json scans a multi-KB QASM string twice,
// once to find where the value ends and again to unquote the \n that ends
// each line; the strict pass reads it once. Any other body, such as JSON
// written by hand or by another client, goes to encoding/json, which stays
// the decoder of record: every body decodes to the value, or fails with
// the error, that json.NewDecoder(body).Decode gives. FuzzReadBody checks
// both readers against it.
const (
	contentTypeJSON = "application/json"

	// gzipMinBytes is the response-compression floor: tiny bodies cost
	// more in gzip framing than they save.
	gzipMinBytes = 1024
)

// gzipWriters recycles compressors across bodies: a gzip.Writer at the
// default level allocates about 800 KB, far more than the replies it
// compresses. Reset restores a fresh writer's state, so pooled output is
// byte-identical to gzip.NewWriter's.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// writeGzip compresses p onto w with a pooled writer.
func writeGzip(w io.Writer, p []byte) error {
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(w)
	if _, err := zw.Write(p); err != nil {
		return err
	}
	return zw.Close()
}

func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// readBody decodes a JSON request body under the size cap, honoring gzip
// Content-Encoding. Replies with the appropriate 4xx and returns false on
// any failure. The body goes through decodeBody, so a SubmitRequest or
// ExchangeRequest that a dist.Client sent takes the one-pass reader.
func readBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if enc := r.Header.Get("Content-Encoding"); strings.Contains(enc, "gzip") {
		zr, err := gzip.NewReader(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad gzip body: "+err.Error())
			return false
		}
		defer zr.Close()
		// MaxBytesReader bounds the compressed stream; bound the inflated
		// one too so a compression bomb cannot bypass the cap.
		body = io.LimitReader(zr, maxBodyBytes)
	}
	if err := decodeBody(body, into); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// maxPooledBody bounds the buffers bodyBufs keeps: a buffer grown by a
// larger body is dropped after use, so one huge body does not stay alive.
const maxPooledBody = 1 << 20

// bodyBuf is the reusable state of decodeBody: the body read so far, the
// reader that caps it, and the strict decoder with its scratch buffer.
type bodyBuf struct {
	body bytes.Buffer
	lr   io.LimitedReader
	dec  strictDecoder
}

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// decodeBody decodes the JSON value at the start of r into v, with the
// result or error json.NewDecoder(r).Decode(v) gives. It reads r whole
// into a pooled buffer, up to maxBodyBytes, and decodes the four wire
// types in one strict pass. Anything else goes to encoding/json: a body
// the strict pass refuses, a body cut by a read error and a body that
// reaches the cap, replayed as the bytes read followed by the read error
// or by the rest of r. That decoder reads only until its value ends and
// reports a read error only if the value has not ended by then, so it
// decodes the replay as it would have decoded r.
func decodeBody(r io.Reader, v any) error {
	b := bodyBufs.Get().(*bodyBuf)
	defer b.release()
	b.body.Reset()
	b.lr = io.LimitedReader{R: r, N: maxBodyBytes}
	_, err := b.body.ReadFrom(&b.lr)
	data := b.body.Bytes()
	src := io.Reader(bytes.NewReader(data))
	switch {
	case err != nil:
		src = io.MultiReader(src, errReader{err})
	case b.lr.N == 0: // at the cap: r may hold more
		src = io.MultiReader(src, r)
	case b.dec.decode(data, v):
		return nil
	}
	return json.NewDecoder(src).Decode(v)
}

// release returns b to the pool unless a large body grew it.
func (b *bodyBuf) release() {
	b.lr.R = nil
	if b.body.Cap() <= maxPooledBody && cap(b.dec.scratch) <= maxPooledBody {
		bodyBufs.Put(b)
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// strictDecoder decodes the wire types from the JSON json.Marshal writes
// for them, in one pass. Anything else makes it report false: a key it
// does not know or in another case, null, whitespace between tokens, a
// \u escape, a control character or a non-ASCII byte in a string, a number
// outside JSON's grammar or outside float64's range, and anything but
// whitespace after the value.
type strictDecoder struct {
	data    []byte
	i       int    // the next byte of data to read
	scratch []byte // reused to unquote each string
}

// decode decodes data into v, a *SubmitRequest, *SubmitResponse,
// *ExchangeRequest or *ExchangeResponse, and reports whether it could. It
// leaves v as it was when it reports false.
func (d *strictDecoder) decode(data []byte, v any) bool {
	d.data, d.i = data, 0
	switch v := v.(type) {
	case *SubmitRequest:
		return decodeAs(d, v, (*strictDecoder).submitRequest)
	case *SubmitResponse:
		return decodeAs(d, v, (*strictDecoder).submitResponse)
	case *ExchangeRequest:
		return decodeAs(d, v, (*strictDecoder).exchangeRequest)
	case *ExchangeResponse:
		return decodeAs(d, v, (*strictDecoder).exchangeResponse)
	}
	return false
}

// decodeAs reads v with read and then the end of the data. On failure it
// restores v: encoding/json decodes into v as it finds it, so it must find
// what the caller passed.
func decodeAs[T any](d *strictDecoder, v *T, read func(*strictDecoder, *T) bool) bool {
	saved := *v
	if read(d, v) && d.end() {
		return true
	}
	*v = saved
	return false
}

// The readers of the wire types. Each reads an object whose keys are its
// type's JSON names, in any order. As in encoding/json, a repeated key
// overwrites the value before it, and a repeated "best" merges into it.

func (d *strictDecoder) submitRequest(v *SubmitRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "qasm":
			return d.str(&v.QASM)
		case "target":
			return d.str(&v.Target)
		case "objective":
			return d.str(&v.Objective)
		case "epsilon":
			return d.num(&v.Epsilon)
		case "worker":
			return d.str(&v.Worker)
		}
		return false
	})
}

func (d *strictDecoder) submitResponse(v *SubmitResponse) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "cached":
			return d.boolean(&v.Cached)
		case "session":
			return d.str(&v.Session)
		case "best":
			return d.solution(&v.Best)
		}
		return false
	})
}

func (d *strictDecoder) exchangeRequest(v *ExchangeRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "session":
			return d.str(&v.Session)
		case "worker":
			return d.str(&v.Worker)
		case "epsilon":
			return d.num(&v.Epsilon)
		case "best":
			return d.solution(&v.Best)
		}
		return false
	})
}

func (d *strictDecoder) exchangeResponse(v *ExchangeResponse) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "adopt":
			return d.boolean(&v.Adopt)
		case "best":
			return d.solution(&v.Best)
		}
		return false
	})
}

func (d *strictDecoder) solution(v *Solution) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "qasm":
			return d.str(&v.QASM)
		case "err":
			return d.num(&v.Err)
		case "cost":
			return d.num(&v.Cost)
		}
		return false
	})
}

// object reads an object, handing each key to field, which reads its
// value.
func (d *strictDecoder) object(field func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		if !d.next('"') {
			return false
		}
		start := d.i
		for d.i < len(d.data) && plainByte[d.data[d.i]] {
			d.i++
		}
		key := d.data[start:d.i]
		if !d.next('"') || !d.next(':') || !field(key) {
			return false
		}
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// str reads a string into *s.
func (d *strictDecoder) str(s *string) bool {
	if !d.next('"') {
		return false
	}
	data, buf := d.data, d.scratch[:0]
	start := d.i
	for i := start; i < len(data); {
		c := data[i]
		if plainByte[c] {
			i++
			continue
		}
		buf = append(buf, data[start:i]...)
		i++
		if c == '"' {
			*s = string(buf)
			d.i, d.scratch = i, buf
			return true
		}
		if c != '\\' || i == len(data) || unescape[data[i]] == 0 {
			return false
		}
		buf = append(buf, unescape[data[i]])
		i++
		start = i
	}
	return false
}

// num reads a number in JSON's grammar into *f, with the bits
// strconv.ParseFloat gives, as encoding/json does.
func (d *strictDecoder) num(f *float64) bool {
	start := d.i
	d.next('-')
	if !d.next('0') && !d.digits() {
		return false
	}
	if d.next('.') && !d.digits() {
		return false
	}
	if d.next('e') || d.next('E') {
		_ = d.next('+') || d.next('-')
		if !d.digits() {
			return false
		}
	}
	x, err := strconv.ParseFloat(string(d.data[start:d.i]), 64)
	if err != nil {
		return false
	}
	*f = x
	return true
}

// digits reads one or more decimal digits.
func (d *strictDecoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// boolean reads true or false into *b.
func (d *strictDecoder) boolean(b *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if len(d.data)-d.i >= len(lit) && string(d.data[d.i:d.i+len(lit)]) == lit {
			*b = lit == "true"
			d.i += len(lit)
			return true
		}
	}
	return false
}

// next consumes c if it is the next byte.
func (d *strictDecoder) next(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left: marshalReply ends a
// reply with a newline.
func (d *strictDecoder) end() bool {
	for _, c := range d.data[d.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

var (
	// plainByte marks the bytes a string may hold as they are: ASCII from
	// the space up, but the quote and the backslash.
	plainByte = func() (t [256]bool) {
		for c := ' '; c < 0x80; c++ {
			t[c] = c != '"' && c != '\\'
		}
		return t
	}()
	// unescape maps the byte after a backslash to the byte it stands for,
	// for JSON's simple escapes; 0 for \u and for anything else.
	unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
)

// writeReply encodes v as JSON, gzipped when the client accepts gzip and
// the body clears the size floor. A nil request always writes plain JSON.
func writeReply(w http.ResponseWriter, r *http.Request, v any) {
	payload, err := marshalReply(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if r != nil && len(payload) >= gzipMinBytes && acceptsGzip(r) {
		setReplyHeaders(w, true)
		_ = writeGzip(w, payload) // the client is gone; nothing to report to
		return
	}
	setReplyHeaders(w, false)
	_, _ = w.Write(payload)
}

// encodeReply returns the body writeReply sends v as to a client that
// accepts gzip: the gzipped JSON when it clears the size floor, the JSON
// itself below it. isGzip tells the two apart.
func encodeReply(v any) ([]byte, error) {
	payload, err := marshalReply(v)
	if err != nil || len(payload) < gzipMinBytes {
		return payload, err
	}
	var buf bytes.Buffer
	if err := writeGzip(&buf, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// isGzip reports whether an encodeReply body is gzipped: a gzip stream
// starts with the bytes 1f 8b, a JSON reply with '{'.
func isGzip(body []byte) bool {
	return len(body) >= 2 && body[0] == 0x1f && body[1] == 0x8b
}

// marshalReply is v's JSON reply body, newline-terminated as
// json.Encoder writes it.
func marshalReply(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	return append(payload, '\n'), err
}

func setReplyHeaders(w http.ResponseWriter, gzipped bool) {
	w.Header().Set("Content-Type", contentTypeJSON)
	if gzipped {
		w.Header().Set("Content-Encoding", "gzip")
	}
}
