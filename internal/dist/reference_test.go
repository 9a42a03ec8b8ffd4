package dist

// Reference oracles: readBody and Client.decodeResponse as they were
// before codec.go's one-pass reader, decoding every body with
// encoding/json, kept verbatim (renamed, and decodeResponse without its
// unused receiver) so that FuzzReadBody checks the readers against them.

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

func refReadBody(w http.ResponseWriter, r *http.Request, into any) bool {
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

func refDecodeResponse(resp *http.Response, into any) error {
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
	return json.NewDecoder(body).Decode(into)
}
