// Package httpapi is the HTTP plumbing shared by the query service
// (internal/server) and the shard router front (internal/shard):
// the response Stream with its two transports (NDJSON lines and
// binary frames, picked once per request by NewStream), the Front
// every request passes through (request IDs, metrics, deadlines,
// traces), plain JSON bodies, request decoding, and the
// {"error": {...}} envelope. Both processes speak the exact same wire
// format — a client must not be able to tell sjrouter from sjserved —
// so the plumbing exists exactly once.
package httpapi

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"

	"unijoin/client"
	"unijoin/internal/geom"
)

// MaxBodyBytes bounds request bodies; join/window requests are tiny.
const MaxBodyBytes = 1 << 20

// MaxAppendBodyBytes bounds one append request body, at a shard and at
// the router alike. Bulk loads beyond this stream as several requests;
// at ~60 bytes per NDJSON record line the cap still admits ~4M records
// per call.
const MaxAppendBodyBytes = 256 << 20

// ToRect converts a wire rectangle to a normalized engine rectangle.
func ToRect(r client.Rect) geom.Rect {
	return geom.NewRect(geom.Coord(r.XLo), geom.Coord(r.YLo), geom.Coord(r.XHi), geom.Coord(r.YHi))
}

// FromRect converts an engine rectangle to its wire form.
func FromRect(r geom.Rect) client.Rect {
	return client.Rect{XLo: float64(r.XLo), YLo: float64(r.YLo), XHi: float64(r.XHi), YHi: float64(r.YHi)}
}

// lineBuf is a poolable marshal buffer with its JSON encoder bound to
// it once — Encoder.Encode writes into the reused buffer (and appends
// the newline itself), so a steady-state streaming response allocates
// nothing per line where json.Marshal allocated the returned slice
// every call.
type lineBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledLineBytes caps what a returned buffer may retain: a freak
// line (a huge windowed record batch) should not pin megabytes in the
// pool for the rest of the process's life.
const maxPooledLineBytes = 1 << 20

var lineBufPool = sync.Pool{New: func() any {
	lb := &lineBuf{}
	lb.enc = json.NewEncoder(&lb.buf)
	return lb
}}

// LineWriter is the NDJSON Stream: it emits lines, flushing each one
// so clients see results as they are produced. Write failures (a
// vanished client) are swallowed: the query itself is aborted
// separately through the request context. Its marshal buffer is
// pooled across requests; call Close (safe to defer, safe to call
// twice) when the response is done.
type LineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	started bool
	lb      *lineBuf

	// Scratch reused across batches: Relay unpacks frames into
	// pairs/recs, WriteRecords widens records into out.
	pairs [][2]uint32
	recs  []geom.Record
	out   []client.RecordOut
}

// NewLineWriter wraps a response writer for NDJSON streaming.
func NewLineWriter(w http.ResponseWriter) *LineWriter {
	f, _ := w.(http.Flusher)
	return &LineWriter{w: w, flusher: f}
}

// Started reports whether a line has already been written.
func (lw *LineWriter) Started() bool { return lw.started }

// WriteLine marshals v and sends it as one flushed NDJSON line.
func (lw *LineWriter) WriteLine(v any) {
	if lw.lb == nil {
		lw.lb = lineBufPool.Get().(*lineBuf)
	}
	lw.lb.buf.Reset()
	if err := lw.lb.enc.Encode(v); err != nil {
		return
	}
	if !lw.started {
		lw.w.Header().Set("Content-Type", "application/x-ndjson")
		lw.started = true
	}
	lw.w.Write(lw.lb.buf.Bytes())
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
}

// Close returns the line buffer to the pool. The writer must not be
// used afterwards; calling Close more than once is a no-op.
func (lw *LineWriter) Close() {
	if lw.lb == nil {
		return
	}
	if lw.lb.buf.Cap() <= maxPooledLineBytes {
		lineBufPool.Put(lw.lb)
	}
	lw.lb = nil
}

// WriteJSON sends a 200 with a plain JSON body, marshaling before any
// byte is written so an unmarshalable value becomes a 500 rather than
// a silently truncated 200.
func WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		WriteError(w, &client.APIError{
			Status: http.StatusInternalServerError, Code: client.CodeInternal,
			Message: "encoding response: " + err.Error(),
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// WriteError sends a non-2xx JSON error body ({"error": {...}}).
func WriteError(w http.ResponseWriter, e *client.APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(map[string]*client.APIError{"error": e})
}

// StatusRecorder captures the status code a handler sends so logging
// and metrics middleware can report it. It forwards Flush so streaming
// handlers keep working through the wrapper, and implements Unwrap so
// http.NewResponseController flush/deadline calls reach the
// underlying writer.
type StatusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *StatusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *StatusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Flush implements http.Flusher when the underlying writer does.
func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.NewResponseController,
// so controller flush and deadline calls pass through the wrapper.
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Status returns the recorded status code (200 when the handler wrote
// a body without an explicit WriteHeader, or wrote nothing at all).
func (r *StatusRecorder) Status() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// RequestIDHeader carries a query's correlation ID router → shard, so
// one client request can be followed across the fleet's logs.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds IDs accepted from clients; anything longer is
// replaced rather than amplified through the fleet's logs.
const maxRequestIDLen = 64

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// EnsureRequestID returns the request's X-Request-Id header, or a
// fresh ID when the header is absent or abusive. The caller echoes it
// on the response and logs it, so client, router, and shard all speak
// of the same query by the same name.
func EnsureRequestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" && len(id) <= maxRequestIDLen {
		return id
	}
	return NewRequestID()
}

// DecodeBody parses a JSON request body, returning an API error for
// anything malformed or unknown.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) *client.APIError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return &client.APIError{
			Status: http.StatusBadRequest, Code: client.CodeBadRequest,
			Message: "bad request body: " + err.Error(),
		}
	}
	return nil
}
