package httpapi

import (
	"encoding/json"
	"net/http"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// FrameWriter is the binary Stream: it packs wire frames in place into
// the stream's pending buffer and writes them under the flush rule
// (flush.go) — at FlushBytes, after the linger, and with the terminal
// frames — so frames are not writes. The Content-Type header is set
// with the first frame, so pre-stream failures still go out as plain
// HTTP errors. Write failures (a vanished client) are swallowed; the
// query is aborted separately through the request context. Close ends
// the stream and releases the pending buffer (safe to defer, safe to
// call twice).
// Calls must be serialised by the caller, as the router's scatter
// merge already does; only the linger timer runs beside them, under
// the stream's lock.
type FrameWriter struct {
	sink
}

// NewFrameWriter wraps a response writer for frame streaming. observe
// (which may be nil) receives per-type frame and byte counts of every
// write that went out — the hook the serving layers hang their
// sj_frames_total families on. It runs under the stream's lock, on the
// producer's goroutine or the linger timer's, and must not call back
// into the stream.
func NewFrameWriter(w http.ResponseWriter, observe func(t wire.Type, frames, bytes int64)) *FrameWriter {
	fw := &FrameWriter{sink: newSink(w, wire.ContentType)}
	fw.observe = observe
	return fw
}

// added accounts the frames of type t appended to the pending buffer
// since it held n bytes, and applies the flush rule. Caller holds mu.
func (fw *FrameWriter) added(t wire.Type, n int, frames int64, final bool) {
	fw.unsent[t].frames += frames
	fw.unsent[t].bytes += int64(len(fw.pb.b) - n)
	fw.commit(final)
}

// framesOf is the number of frames a batch of n entries splits into,
// at most per entries a frame (wire.AppendPairs, AppendRecords).
func framesOf(n, per int) int64 { return int64((n + per - 1) / per) }

// WritePairs emits one batch of join pairs as PAIRS frames.
func (fw *FrameWriter) WritePairs(pairs [][2]uint32) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	pb := fw.buffer()
	n := len(pb.b)
	pb.b = wire.AppendPairs(pb.b, pairs)
	fw.added(wire.TypePairs, n, framesOf(len(pairs), wire.MaxPayload/wire.PairSize), false)
}

// WriteRecords emits one batch of records as RECORDS frames.
func (fw *FrameWriter) WriteRecords(recs []geom.Record) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	pb := fw.buffer()
	n := len(pb.b)
	pb.b = wire.AppendRecords(pb.b, recs)
	fw.added(wire.TypeRecords, n, framesOf(len(recs), wire.MaxPayload/wire.RecordSize), false)
}

// Relay packs an already-framed byte sequence unmodified — the
// router's zero-decode scatter path. raw must be one whole frame with
// a validated header (wire.Scanner returns exactly that); its payload
// and CRC pass through untouched, preserving the end-to-end integrity
// check, so no frame is ever refused here.
func (fw *FrameWriter) Relay(raw []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	pb := fw.buffer()
	n := len(pb.b)
	pb.b = append(pb.b, raw...)
	fw.added(wire.PeekType(raw), n, 1, false)
	return nil
}

// writeJSON emits a SUMMARY or ERROR frame carrying v. Terminal frames
// are written at End, which follows them.
func (fw *FrameWriter) writeJSON(t wire.Type, v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	pb := fw.buffer()
	n := len(pb.b)
	pb.b = wire.AppendFrame(pb.b, t, payload)
	fw.added(t, n, 1, false)
}

// WriteSummary emits the terminal SUMMARY frame.
func (fw *FrameWriter) WriteSummary(v any) { fw.writeJSON(wire.TypeSummary, v) }

// WriteError emits a terminal ERROR frame.
func (fw *FrameWriter) WriteError(e *client.APIError) { fw.writeJSON(wire.TypeError, e) }

// End closes the stream with the END frame and writes everything
// pending. A stream that stops without it was truncated, and the
// decoding client says so.
func (fw *FrameWriter) End() {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	pb := fw.buffer()
	n := len(pb.b)
	pb.b = wire.AppendFrame(pb.b, wire.TypeEnd, nil)
	fw.added(wire.TypeEnd, n, 1, true)
}
