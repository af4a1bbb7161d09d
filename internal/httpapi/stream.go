package httpapi

import (
	"fmt"
	"net/http"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// Stream is one streaming response — a join's pairs or a window
// query's records, then exactly one terminal summary or error — on
// whichever transport the caller negotiated. The transport is a
// property of the Stream alone: handlers produce batches (or relay a
// shard's frames) and never ask which wire format they end up in.
// FrameWriter and LineWriter are the two implementations.
//
// A Stream is not safe for concurrent use; a router's scatter
// serialises its shards' frames before they reach Relay.
type Stream interface {
	// WritePairs and WriteRecords emit one batch of results.
	WritePairs(pairs [][2]uint32)
	WriteRecords(recs []geom.Record)
	// Relay emits one whole shard DATA frame (header validated, as
	// wire.Scanner returns it) on the caller's transport. A non-nil
	// error means the frame was refused and nothing of it was
	// rendered; the response must then end in Fail.
	Relay(raw []byte) error
	// Finish ends a successful response with its summary.
	Finish(summary any)
	// Fail ends a failed response: a plain HTTP status with the
	// {"error": …} body while nothing has been sent, or a well-formed
	// terminal error (an error line; ERROR+END frames) once results are
	// under way and the status line is long gone. Either way the caller
	// gets exactly the results already streamed plus one typed error —
	// never a silently partial answer.
	Fail(e *client.APIError)
	// Started reports whether any byte of the stream has been sent —
	// the point of no return for the HTTP status code.
	Started() bool
	// Close releases the stream's pooled buffers (safe to defer, safe
	// to call twice).
	Close()
}

// NewStream picks the response transport for r — the one place the
// serving stack negotiates: frames when the request's Accept header
// offers them, NDJSON otherwise. observe (which may be nil) receives
// per-type frame and byte counts, as in NewFrameWriter.
func NewStream(w http.ResponseWriter, r *http.Request, observe func(t wire.Type, frames, bytes int64)) Stream {
	if wire.Negotiates(r) {
		return NewFrameWriter(w, observe)
	}
	return NewLineWriter(w)
}

// Finish emits the terminal SUMMARY frame and END.
func (fw *FrameWriter) Finish(summary any) {
	fw.WriteSummary(summary)
	fw.End()
}

// Fail implements Stream.Fail: an HTTP error before the first frame,
// ERROR+END after it.
func (fw *FrameWriter) Fail(e *client.APIError) {
	if !fw.started {
		writeError(fw.w, e)
		return
	}
	fw.WriteError(e)
	fw.End()
}

// WritePairs emits one batch of join pairs as a batch line — the bytes
// client.JoinLine{Pairs: pairs} marshals to.
func (lw *LineWriter) WritePairs(pairs [][2]uint32) {
	lw.WriteLine(client.JoinLine{Pairs: pairs})
}

// WriteRecords emits one batch of records as a batch line — the bytes
// client.WindowLine marshals to — widening the engine's float32
// coordinates into a reused buffer.
func (lw *LineWriter) WriteRecords(recs []geom.Record) {
	lw.out = lw.out[:0]
	for _, rec := range recs {
		lw.out = append(lw.out, client.RecordOut{ID: rec.ID, Rect: client.Rect{
			XLo: float64(rec.Rect.XLo), YLo: float64(rec.Rect.YLo),
			XHi: float64(rec.Rect.XHi), YHi: float64(rec.Rect.YHi),
		}})
	}
	lw.WriteLine(client.WindowLine{Records: lw.out})
}

// Relay renders one shard DATA frame as the batch line the shard would
// have written itself — where a fleet's NDJSON is produced, once, at
// the front the caller hit. This process consumes the payload, so the
// CRC the frame→frame relay leaves to the end client is checked here;
// a corrupt, misaligned or non-DATA frame is refused unrendered.
func (lw *LineWriter) Relay(raw []byte) error {
	f, err := wire.Verify(raw)
	if err != nil {
		return err
	}
	switch f.Type {
	case wire.TypePairs:
		if lw.pairs, err = f.Pairs(lw.pairs[:0]); err == nil {
			lw.WritePairs(lw.pairs)
		}
	case wire.TypeRecords:
		if lw.recs, err = f.Records(lw.recs[:0]); err == nil {
			lw.WriteRecords(lw.recs)
		}
	default:
		err = fmt.Errorf("%w: %s frame on the relay path", wire.ErrBadType, f.Type)
	}
	return err
}

// Finish emits the terminal summary line — for either summary type the
// bytes of client.JoinLine/WindowLine{Summary: summary}.
func (lw *LineWriter) Finish(summary any) {
	lw.WriteLine(struct {
		Summary any `json:"summary"`
	}{summary})
}

// Fail implements Stream.Fail: an HTTP error before the first line, a
// terminal {"error": …} line after it.
func (lw *LineWriter) Fail(e *client.APIError) {
	if !lw.started {
		writeError(lw.w, e)
		return
	}
	lw.WriteLine(struct {
		Error *client.APIError `json:"error"`
	}{e})
}
