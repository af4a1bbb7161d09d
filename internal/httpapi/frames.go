package httpapi

import (
	"io"
	"net/http"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// meteredWriter counts writes and bytes on their way to the client.
// The wire encoder issues exactly one Write per frame, so the write
// count is the frame count — which keeps the frame metrics out of the
// encoding hot loop.
type meteredWriter struct {
	w      io.Writer
	writes int64
	bytes  int64
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	m.writes++
	m.bytes += int64(len(p))
	return m.w.Write(p)
}

// FrameWriter is the binary Stream: it sends wire frames over an HTTP
// response, flushing each logical emit, and defers the
// Content-Type header to the first frame so pre-stream failures still
// go out as plain HTTP errors. Write failures (a vanished client) are
// swallowed; the query is aborted separately through the request
// context. Close releases the encoder's pooled scratch buffer (safe
// to defer, safe to call twice). Not safe for concurrent use — the
// caller serializes, as the router's scatter merge already must.
type FrameWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	mw      meteredWriter
	enc     *wire.Encoder
	observe func(t wire.Type, frames, bytes int64)
	started bool
}

// NewFrameWriter wraps a response writer for frame streaming. observe
// (which may be nil) receives per-type frame and byte counts after
// each emit — the hook the serving layers hang their sj_frames_total
// families on.
func NewFrameWriter(w http.ResponseWriter, observe func(t wire.Type, frames, bytes int64)) *FrameWriter {
	fw := &FrameWriter{w: w, observe: observe}
	fw.flusher, _ = w.(http.Flusher)
	fw.mw.w = w
	fw.enc = wire.NewEncoder(&fw.mw)
	return fw
}

// Started reports whether any frame has been written — the point of
// no return for the HTTP status code.
func (fw *FrameWriter) Started() bool { return fw.started }

// Close releases the encoder's scratch buffer.
func (fw *FrameWriter) Close() { fw.enc.Close() }

// emit runs one logical frame write: headers on first use, observed
// deltas after, one flush at the end.
func (fw *FrameWriter) emit(t wire.Type, write func() error) {
	if !fw.started {
		fw.w.Header().Set("Content-Type", wire.ContentType)
		fw.started = true
	}
	w0, b0 := fw.mw.writes, fw.mw.bytes
	if err := write(); err != nil {
		return
	}
	if fw.observe != nil {
		fw.observe(t, fw.mw.writes-w0, fw.mw.bytes-b0)
	}
	if fw.flusher != nil {
		fw.flusher.Flush()
	}
}

// WritePairs emits one batch of join pairs as PAIRS frames.
func (fw *FrameWriter) WritePairs(pairs [][2]uint32) {
	fw.emit(wire.TypePairs, func() error { return fw.enc.WritePairs(pairs) })
}

// WriteRecords emits one batch of records as RECORDS frames.
func (fw *FrameWriter) WriteRecords(recs []geom.Record) {
	fw.emit(wire.TypeRecords, func() error { return fw.enc.WriteRecords(recs) })
}

// WriteSummary emits the terminal SUMMARY frame.
func (fw *FrameWriter) WriteSummary(v any) {
	fw.emit(wire.TypeSummary, func() error { return fw.enc.WriteJSON(wire.TypeSummary, v) })
}

// WriteError emits a terminal ERROR frame.
func (fw *FrameWriter) WriteError(e *client.APIError) {
	fw.emit(wire.TypeError, func() error { return fw.enc.WriteJSON(wire.TypeError, e) })
}

// End closes the stream with the END frame. A stream that stops
// without it was truncated, and the decoding client says so.
func (fw *FrameWriter) End() {
	fw.emit(wire.TypeEnd, func() error { return fw.enc.WriteEnd() })
}

// Relay writes an already-framed byte sequence through unmodified —
// the router's zero-decode scatter path. raw must be one whole frame
// with a validated header (wire.Scanner returns exactly that); its
// payload and CRC pass through untouched, preserving the end-to-end
// integrity check, so no frame is ever refused here.
func (fw *FrameWriter) Relay(raw []byte) error {
	fw.emit(wire.PeekType(raw), func() error { return fw.enc.WriteRaw(raw) })
	return nil
}
