// The HTTP ranged read/write protocol: GET/PUT /dev with Range and
// Content-Range over the device's byte space (sector aligned), documented
// in docs/serving.md. Handlers run on net/http's goroutines and reach the
// confined stack only through the serve.Server API, which lets one of them
// own it at a time.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"flashswl/internal/blockdev"
	"flashswl/internal/serve"
	"flashswl/internal/serve/cache"
)

// newMux wires the service surface: the device at /dev, /flush, /stats,
// and everything else (monitor snapshots, /metrics, the dashboard) on the
// fallback handler. wcache and fallback may be nil.
func newMux(srv *serve.Server, wcache *cache.Cache, fallback http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/dev", &devHandler{srv: srv})
	mux.HandleFunc("/flush", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := srv.Flush(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeStats(w, srv, wcache)
	})
	if fallback != nil {
		mux.Handle("/", fallback)
	}
	return mux
}

// devHandler serves the sector space at /dev.
type devHandler struct {
	srv *serve.Server
}

func (h *devHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h.read(w, r)
	case http.MethodPut:
		h.write(w, r)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "GET, HEAD, or PUT only", http.StatusMethodNotAllowed)
	}
}

// parseRange parses "bytes=start-end" (both inclusive, both required — no
// suffix or open-ended forms) into a byte offset and length. The header is
// the client's: 0 <= off and 1 <= length hold, nothing else — length
// saturates at MaxInt64 for bytes=0-9223372036854775807, whose true length
// does not fit, so off+length may overflow and callers must bound both
// before using either.
func parseRange(spec string) (off, length int64, err error) {
	spec = strings.TrimSpace(spec)
	rest, ok := strings.CutPrefix(spec, "bytes=")
	if !ok {
		return 0, 0, fmt.Errorf("range %q: only bytes=start-end is supported", spec)
	}
	first, last, ok := strings.Cut(rest, "-")
	if !ok || first == "" || last == "" || strings.Contains(last, ",") {
		return 0, 0, fmt.Errorf("range %q: only a single bytes=start-end range is supported", spec)
	}
	a, err := strconv.ParseInt(first, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %v", spec, err)
	}
	b, err := strconv.ParseInt(last, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %v", spec, err)
	}
	if b < a {
		return 0, 0, fmt.Errorf("range %q: end before start", spec)
	}
	if a == 0 && b == math.MaxInt64 {
		return 0, math.MaxInt64, nil
	}
	return a, b - a + 1, nil
}

// parseContentRange parses "bytes start-end/size" (size may be "*").
func parseContentRange(spec string) (off, length int64, err error) {
	spec = strings.TrimSpace(spec)
	rest, ok := strings.CutPrefix(spec, "bytes ")
	if !ok {
		return 0, 0, fmt.Errorf("content-range %q: must be bytes start-end/size", spec)
	}
	span, _, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, 0, fmt.Errorf("content-range %q: missing /size", spec)
	}
	return parseRange("bytes=" + span)
}

// status maps an operation error to an HTTP status: addressing mistakes
// (out of range, unaligned) are the client's fault and map to 416, a
// closed server maps to 503, and everything else is a device-side 500.
func status(err error) int {
	var se *blockdev.SectorError
	switch {
	case errors.As(err, &se):
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// read serves GET/HEAD: the whole device, or the single sector-aligned
// Range requested, as application/octet-stream.
func (h *devHandler) read(w http.ResponseWriter, r *http.Request) {
	size := h.srv.Sectors() * blockdev.SectorSize
	off, length := int64(0), size
	ranged := false
	if spec := r.Header.Get("Range"); spec != "" {
		var err error
		off, length, err = parseRange(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ranged = true
	}
	if off < 0 || length <= 0 || length > size || off > size-length {
		http.Error(w, fmt.Sprintf("range of %d bytes at %d is outside the %d-byte device", length, off, size), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if off%blockdev.SectorSize != 0 || length%blockdev.SectorSize != 0 {
		http.Error(w, fmt.Sprintf("range [%d,%d) is not sector aligned (%d-byte sectors)", off, off+length, blockdev.SectorSize), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	if ranged {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
	}
	if r.Method == http.MethodHead {
		if ranged {
			w.WriteHeader(http.StatusPartialContent)
		}
		return
	}
	buf := make([]byte, length)
	if err := h.srv.Read(off/blockdev.SectorSize, buf); err != nil {
		http.Error(w, err.Error(), status(err))
		return
	}
	if ranged {
		w.WriteHeader(http.StatusPartialContent)
	}
	w.Write(buf)
}

// write serves PUT: the body lands at the sector-aligned offset named by
// Content-Range (offset 0 without one); the body length must match the
// range and be whole sectors.
func (h *devHandler) write(w http.ResponseWriter, r *http.Request) {
	size := h.srv.Sectors() * blockdev.SectorSize
	off := int64(0)
	want := int64(-1)
	if spec := r.Header.Get("Content-Range"); spec != "" {
		var err error
		off, want, err = parseContentRange(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, size+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > size {
		http.Error(w, fmt.Sprintf("body exceeds the %d-byte device", size), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if want >= 0 && int64(len(body)) != want {
		http.Error(w, fmt.Sprintf("body is %d bytes but Content-Range spans %d", len(body), want), http.StatusBadRequest)
		return
	}
	if off%blockdev.SectorSize != 0 || len(body)%blockdev.SectorSize != 0 {
		http.Error(w, fmt.Sprintf("write [%d,%d) is not sector aligned (%d-byte sectors)", off, off+int64(len(body)), blockdev.SectorSize), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if err := h.srv.Write(off/blockdev.SectorSize, body); err != nil {
		http.Error(w, err.Error(), status(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statsReply is the /stats JSON document.
type statsReply struct {
	Sectors int64        `json:"sectors"`
	Bytes   int64        `json:"bytes"`
	Serve   serve.Stats  `json:"serve"`
	Cache   *cache.Stats `json:"cache,omitempty"`
}

// writeStats serves /stats: the server's counters plus, when a cache is
// attached, its counters — collected with the stack owned, via Exec.
func writeStats(w http.ResponseWriter, srv *serve.Server, wcache *cache.Cache) {
	reply := statsReply{Sectors: srv.Sectors(), Bytes: srv.Sectors() * blockdev.SectorSize}
	st, err := srv.Stats()
	if err == nil && wcache != nil {
		err = srv.Exec(func() error {
			cs := wcache.Stats()
			reply.Cache = &cs
			return nil
		})
	}
	if err != nil {
		http.Error(w, err.Error(), status(err))
		return
	}
	reply.Serve = st
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&reply)
}
