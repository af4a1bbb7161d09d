package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"slices"
	"testing"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// flakyWriter is an http.ResponseWriter whose Write fails on
// configured call numbers (1-based), simulating a client connection
// hiccup mid-stream. Under the flush rule one Write carries one flush
// of whole frames, so call numbers are flush numbers. A failing call
// takes the first torn bytes of what it was given before it fails.
type flakyWriter struct {
	buf     bytes.Buffer
	header  http.Header
	calls   int
	failOn  map[int]bool
	failAll bool
	torn    int
	flushes int
}

func (w *flakyWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *flakyWriter) WriteHeader(int) {}

func (w *flakyWriter) Flush() { w.flushes++ }

func (w *flakyWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.failAll || w.failOn[w.calls] {
		n := min(w.torn, len(p))
		w.buf.Write(p[:n])
		return n, errors.New("connection reset by peer")
	}
	return w.buf.Write(p)
}

// fullBatch is a pairs batch whose frame alone reaches FlushBytes, so
// appending it writes at once: one batch, one flush.
func fullBatch(base uint32) [][2]uint32 {
	pairs := make([][2]uint32, FlushBytes/wire.PairSize)
	for i := range pairs {
		pairs[i] = [2]uint32{base + uint32(i), uint32(i)}
	}
	return pairs
}

// decodeTypes decodes the accumulated stream and returns the frame
// type sequence plus the terminal error payload, if any.
func decodeTypes(t *testing.T, raw []byte) ([]wire.Type, *client.APIError) {
	t.Helper()
	dec := wire.NewDecoder(bytes.NewReader(raw))
	var seq []wire.Type
	var apiErr *client.APIError
	for {
		f, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return seq, apiErr
		}
		if err != nil {
			t.Fatalf("stream does not decode cleanly: %v", err)
		}
		seq = append(seq, f.Type)
		if f.Type == wire.TypeError {
			apiErr = new(client.APIError)
			if err := json.Unmarshal(f.Payload, apiErr); err != nil {
				t.Fatalf("ERROR frame payload: %v", err)
			}
		}
	}
}

// A failed flush drops its frames whole and does not derail the
// termination protocol: the stream still carries exactly one ERROR and
// one END, in order, and still decodes cleanly — the failed flush's
// frames simply never reach the wire. The observe hook (the
// sj_frames_total / sj_frame_bytes_total families) counts exactly the
// frames and bytes of the writes that went out.
func TestFrameWriterMidStreamWriteFailure(t *testing.T) {
	w := &flakyWriter{failOn: map[int]bool{2: true}}
	frames, sizes := map[wire.Type]int64{}, map[wire.Type]int64{}
	fw := NewFrameWriter(w, func(ft wire.Type, n, b int64) { frames[ft] += n; sizes[ft] += b })
	defer fw.Close()

	delivered := fullBatch(0)
	fw.WritePairs(delivered)          // flush 1: delivered
	fw.WritePairs(fullBatch(1 << 20)) // flush 2: write fails, frames dropped
	fw.WriteError(&client.APIError{Status: 500, Code: "internal", Message: "boom"})
	fw.End() // flush 3: ERROR + END

	seq, apiErr := decodeTypes(t, w.buf.Bytes())
	want := []wire.Type{wire.TypePairs, wire.TypeError, wire.TypeEnd}
	if !slices.Equal(seq, want) {
		t.Fatalf("frame sequence = %v, want %v", seq, want)
	}
	if apiErr == nil || apiErr.Code != "internal" || apiErr.Status != 500 {
		t.Fatalf("terminal error = %+v, want the 500/internal APIError", apiErr)
	}
	f, err := wire.NewDecoder(bytes.NewReader(w.buf.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Pairs(nil); !slices.Equal(got, delivered) {
		t.Fatalf("the PAIRS frame on the wire is not the delivered batch")
	}

	// 1 PAIRS (not 2), 1 ERROR, 1 END, and their bytes are exactly the
	// bytes on the wire.
	if frames[wire.TypePairs] != 1 || frames[wire.TypeError] != 1 || frames[wire.TypeEnd] != 1 || len(frames) != 3 {
		t.Fatalf("observed frame counts = %v, want pairs:1 error:1 end:1", frames)
	}
	if sizes[wire.TypeEnd] != wire.HeaderSize || sizes[wire.TypePairs]+sizes[wire.TypeError]+sizes[wire.TypeEnd] != int64(w.buf.Len()) {
		t.Fatalf("observed frame bytes = %v, wire holds %d", sizes, w.buf.Len())
	}
	// One flush per write that went out; the failed one returns before
	// flushing. ERROR and END go out together, or apart when a slow run
	// lets the linger armed by ERROR expire before End.
	if w.calls < 3 || w.calls > 4 || w.flushes != w.calls-1 {
		t.Fatalf("writes = %d, flushes = %d; want 3 or 4 writes, all but the failed one flushed", w.calls, w.flushes)
	}
	if got := w.Header().Get("Content-Type"); got != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, wire.ContentType)
	}
}

// A write that fails after taking part of a flush leaves a torn frame
// on the wire. Nothing may follow it — bytes after a torn frame would
// be read as frames — so the stream writes no more, and observes
// nothing more; the client reads the delivered frame, then truncation.
func TestFrameWriterTornWriteFailure(t *testing.T) {
	w := &flakyWriter{failOn: map[int]bool{2: true}, torn: 100}
	observed := 0
	fw := NewFrameWriter(w, func(wire.Type, int64, int64) { observed++ })

	fw.WritePairs(fullBatch(0))       // flush 1: delivered
	fw.WritePairs(fullBatch(1 << 20)) // flush 2: torn after 100 bytes
	fw.WritePairs([][2]uint32{{1, 2}})
	fw.WriteError(&client.APIError{Status: 500, Code: "internal", Message: "boom"})
	fw.End()
	fw.Close()

	first := wire.HeaderSize + FlushBytes
	if w.calls != 2 || w.buf.Len() != first+100 || w.flushes != 1 || observed != 1 {
		t.Fatalf("writes %d, bytes %d, flushes %d, observed %d; want 2, %d, 1, 1",
			w.calls, w.buf.Len(), w.flushes, observed, first+100)
	}
	dec := wire.NewDecoder(bytes.NewReader(w.buf.Bytes()))
	if f, err := dec.Next(); err != nil || f.Type != wire.TypePairs {
		t.Fatalf("first frame = %v, %v; want the delivered PAIRS frame", f.Type, err)
	}
	if _, err := dec.Next(); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("after the torn frame: %v, want ErrTruncated", err)
	}
}

// A client that vanished entirely: every write fails. The writer must
// swallow all of it without panicking, never call the observe hook,
// never flush, and leave the stream empty — for size flushes, the
// terminal flush and Close alike.
func TestFrameWriterDeadClient(t *testing.T) {
	w := &flakyWriter{failAll: true}
	observed := 0
	fw := NewFrameWriter(w, func(wire.Type, int64, int64) { observed++ })

	fw.WritePairs(fullBatch(0))
	fw.WritePairs([][2]uint32{{1, 2}})
	fw.WriteError(&client.APIError{Status: 500, Code: "internal", Message: "boom"})
	fw.End()
	fw.WritePairs([][2]uint32{{3, 4}})
	fw.Close()
	fw.Close()

	if !fw.Started() {
		t.Fatal("Started() = false; the first emit commits the stream even if its write fails")
	}
	if observed != 0 {
		t.Fatalf("observe hook called %d times for frames that never reached the wire", observed)
	}
	if w.buf.Len() != 0 {
		t.Fatalf("buffer holds %d bytes, want none", w.buf.Len())
	}
	if w.flushes != 0 {
		t.Fatalf("flushes = %d, want 0", w.flushes)
	}
	// The size flush, the terminal flush and Close each try; a slow run
	// may let the lingers armed by the small batches expire first, and
	// each try one more.
	if w.calls < 3 || w.calls > 5 {
		t.Fatalf("writes attempted = %d, want 3 (size flush, terminal flush, Close) to 5 (and two lingers)", w.calls)
	}
}

// The observe hook counts the frames a split batch became, whatever the
// split: a full RECORDS frame is MaxPayload rounded down to whole
// 20-byte records, so frames are counted from entries, not inferred
// from bytes. Two full frames and one record more make three.
func TestFrameWriterCountsSplitFrames(t *testing.T) {
	w := &flakyWriter{}
	frames, sizes := map[wire.Type]int64{}, map[wire.Type]int64{}
	fw := NewFrameWriter(w, func(ft wire.Type, n, b int64) { frames[ft] += n; sizes[ft] += b })
	defer fw.Close()

	fw.WriteRecords(make([]geom.Record, 2*(wire.MaxPayload/wire.RecordSize)+1))
	fw.WritePairs(make([][2]uint32, wire.MaxPayload/wire.PairSize+1))
	fw.WriteSummary(map[string]int{"records": 3})
	fw.End()

	seq, _ := decodeTypes(t, w.buf.Bytes())
	decoded := map[wire.Type]int64{}
	for _, ft := range seq {
		decoded[ft]++
	}
	if decoded[wire.TypeRecords] != 3 || decoded[wire.TypePairs] != 2 {
		t.Fatalf("decoded frames = %v, want records:3 pairs:2", decoded)
	}
	if !maps.Equal(frames, decoded) {
		t.Fatalf("observed frame counts = %v, decoded %v", frames, decoded)
	}
	var total int64
	for _, b := range sizes {
		total += b
	}
	if total != int64(w.buf.Len()) {
		t.Fatalf("observed frame bytes = %d, wire holds %d", total, w.buf.Len())
	}
}
