package dist

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// Wire codec. Bodies are JSON; gzip transport compression is an opt-in
// upgrade for large-circuit payloads (QASM text compresses ~10×),
// negotiated with the standard headers (request: Content-Encoding;
// response: Accept-Encoding, applied to bodies past a size floor). It is
// strictly per-request: a client that does not ask for gzip never gets it.
const (
	contentTypeJSON = "application/json"

	// gzipMinBytes is the response-compression floor: tiny bodies cost
	// more in gzip framing than they save.
	gzipMinBytes = 1024
)

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
	payload, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	payload = append(payload, '\n')
	w.Header().Set("Content-Type", contentTypeJSON)
	if r != nil && len(payload) >= gzipMinBytes && acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		_, _ = zw.Write(payload)
		_ = zw.Close()
		return
	}
	_, _ = w.Write(payload)
}
