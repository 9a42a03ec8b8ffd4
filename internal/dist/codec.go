package dist

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
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
// any failure.
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
	if err := json.NewDecoder(body).Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

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
