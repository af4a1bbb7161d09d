package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/wire"
)

// streamOn builds the Stream NewStream picks for a request that does,
// or does not, offer the frame transport.
func streamOn(w http.ResponseWriter, frames bool) Stream {
	r := httptest.NewRequest(http.MethodPost, "/v1/join", nil)
	if frames {
		r.Header.Set("Accept", wire.ContentType)
	}
	return NewStream(w, r, nil)
}

// lineKeys parses an NDJSON body into the single key each line
// carries.
func lineKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var keys []string
	for _, l := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(l, &obj); err != nil || len(obj) != 1 {
			t.Fatalf("line %q is not a one-key JSON object (%v)", l, err)
		}
		for k := range obj {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestStreamContract is the one table behind "a response is either
// exactly right or a well-formed error, on both transports": the same
// calls against both Stream implementations, each checked in its own
// wire format.
func TestStreamContract(t *testing.T) {
	boom := &client.APIError{Status: http.StatusGatewayTimeout, Code: client.CodeCanceled, Message: "boom"}
	pairs := [][2]uint32{{1, 2}, {3, 4}}
	sum := &client.JoinSummary{Left: "a", Right: "b", Algorithm: "PQ", Pairs: 2}

	for _, frames := range []bool{false, true} {
		name := map[bool]string{false: "ndjson", true: "frames"}[frames]
		contentType := map[bool]string{false: "application/x-ndjson", true: wire.ContentType}[frames]

		t.Run(name+"/implementation", func(t *testing.T) {
			out := streamOn(httptest.NewRecorder(), frames)
			defer out.Close()
			if _, isFrames := out.(*FrameWriter); isFrames != frames {
				t.Fatalf("NewStream picked %T for frames=%v", out, frames)
			}
		})

		t.Run(name+"/fail before any write", func(t *testing.T) {
			rec := httptest.NewRecorder()
			out := streamOn(rec, frames)
			defer out.Close()
			if out.Started() {
				t.Fatal("a fresh stream reports Started")
			}
			out.Fail(boom)
			if rec.Code != boom.Status || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("status %d, Content-Type %q; want a plain HTTP %d JSON error",
					rec.Code, rec.Header().Get("Content-Type"), boom.Status)
			}
			var envelope struct {
				Error *client.APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == nil || *envelope.Error != *boom {
				t.Fatalf("body %q, want the {\"error\": …} envelope of %+v (%v)", rec.Body, boom, err)
			}
		})

		t.Run(name+"/fail after data", func(t *testing.T) {
			rec := httptest.NewRecorder()
			out := streamOn(rec, frames)
			defer out.Close()
			out.WritePairs(pairs)
			if !out.Started() {
				t.Fatal("Started() = false after a batch")
			}
			out.Fail(boom)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != contentType {
				t.Fatalf("status %d, Content-Type %q; want 200 %s — the status line was long gone",
					rec.Code, rec.Header().Get("Content-Type"), contentType)
			}
			if frames {
				seq, apiErr := decodeTypes(t, rec.Body.Bytes())
				if len(seq) != 3 || seq[0] != wire.TypePairs || seq[1] != wire.TypeError || seq[2] != wire.TypeEnd {
					t.Fatalf("frame sequence %v, want pairs error end", seq)
				}
				if apiErr == nil || *apiErr != *boom {
					t.Fatalf("ERROR frame carries %+v, want %+v", apiErr, boom)
				}
				return
			}
			if keys := lineKeys(t, rec.Body.Bytes()); len(keys) != 2 || keys[0] != "pairs" || keys[1] != "error" {
				t.Fatalf("lines carry %v, want pairs then exactly one error", keys)
			}
		})

		t.Run(name+"/finish", func(t *testing.T) {
			rec := httptest.NewRecorder()
			out := streamOn(rec, frames)
			defer out.Close()
			out.WritePairs(pairs)
			out.Finish(sum)
			if frames {
				if seq, _ := decodeTypes(t, rec.Body.Bytes()); len(seq) != 3 || seq[0] != wire.TypePairs || seq[1] != wire.TypeSummary || seq[2] != wire.TypeEnd {
					t.Fatalf("frame sequence %v, want pairs summary end", seq)
				}
				return
			}
			if keys := lineKeys(t, rec.Body.Bytes()); len(keys) != 2 || keys[0] != "pairs" || keys[1] != "summary" {
				t.Fatalf("lines carry %v, want pairs then summary", keys)
			}
		})

		t.Run(name+"/count-only finish", func(t *testing.T) {
			rec := httptest.NewRecorder()
			out := streamOn(rec, frames)
			defer out.Close()
			out.Finish(sum)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != contentType || !out.Started() {
				t.Fatalf("status %d, Content-Type %q, started %v", rec.Code, rec.Header().Get("Content-Type"), out.Started())
			}
		})
	}
}

// lineOf is the NDJSON line a client-package line type marshals to.
func lineOf(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// written runs fn against a fresh LineWriter, ends the stream (Close
// writes what the flush rule still holds) and returns the bytes it put
// on the wire.
func written(fn func(lw *LineWriter)) string {
	w := &captureWriter{}
	lw := NewLineWriter(w)
	fn(lw)
	lw.Close()
	return string(w.got)
}

// TestLineWriterWireCompatibility pins the public NDJSON format to the
// client package's line types: whatever LineWriter emits through the
// Stream methods is byte for byte what json.Marshal makes of
// client.JoinLine / client.WindowLine — and a relayed shard frame
// renders exactly as the batch it carries.
func TestLineWriterWireCompatibility(t *testing.T) {
	pairs := [][2]uint32{{1, 2}, {0, 4294967295}, {7, 7}}
	recs := []geom.Record{
		{ID: 42, Rect: geom.NewRect(1.5, 2.5, 3.5, 4.5)},
		{ID: 7, Rect: geom.NewRect(0.1, -3e-7, 1e9, 16777217)}, // float32 values with long float64 decimals
		{ID: 0, Rect: geom.NewRect(0, 0, 0, 0)},
	}
	outs := make([]client.RecordOut, len(recs))
	for i, rec := range recs {
		outs[i] = client.RecordOut{ID: rec.ID, Rect: client.Rect{
			XLo: float64(rec.Rect.XLo), YLo: float64(rec.Rect.YLo),
			XHi: float64(rec.Rect.XHi), YHi: float64(rec.Rect.YHi),
		}}
	}
	jsum := &client.JoinSummary{Left: "a<b", Right: "b", Algorithm: "PQ", Pairs: 3, ElapsedMillis: 1.25,
		Trace: &client.PhaseTrace{SweepMillis: 1}, Spans: &client.Span{ID: "ab", Name: "server.join"}}
	wsum := &client.WindowSummary{Relation: "a", Records: 3, Indexed: true, ElapsedMillis: 0.5}
	apiErr := &client.APIError{Status: 500, Code: client.CodeInternal, Message: "boom & <bust>"}

	cases := []struct {
		name string
		emit func(lw *LineWriter)
		want any
	}{
		{"pairs", func(lw *LineWriter) { lw.WritePairs(pairs) }, client.JoinLine{Pairs: pairs}},
		{"records", func(lw *LineWriter) { lw.WriteRecords(recs) }, client.WindowLine{Records: outs}},
		{"join summary", func(lw *LineWriter) { lw.Finish(jsum) }, client.JoinLine{Summary: jsum}},
		{"window summary", func(lw *LineWriter) { lw.Finish(wsum) }, client.WindowLine{Summary: wsum}},
	}
	for _, tc := range cases {
		if got, want := written(tc.emit), lineOf(t, tc.want); got != want {
			t.Errorf("%s: wrote %q, client type marshals to %q", tc.name, got, want)
		}
	}
	// The terminal error line, after a data line has committed the
	// stream (before it, Fail is a plain HTTP error).
	got := written(func(lw *LineWriter) { lw.WritePairs(pairs); lw.Fail(apiErr) })
	if want := lineOf(t, client.JoinLine{Pairs: pairs}) + lineOf(t, client.JoinLine{Error: apiErr}); got != want {
		t.Errorf("error line: wrote %q, want %q", got, want)
	}
	if want := lineOf(t, client.WindowLine{Error: apiErr}); lineOf(t, client.JoinLine{Error: apiErr}) != want {
		t.Errorf("join and window error lines differ: %q", want)
	}

	// Relay(frame(batch)) ≡ Write*(batch).
	var fb bytes.Buffer
	enc := wire.NewEncoder(&fb)
	defer enc.Close()
	if err := enc.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	pairsFrame := append([]byte(nil), fb.Bytes()...)
	fb.Reset()
	if err := enc.WriteRecords(recs); err != nil {
		t.Fatal(err)
	}
	recsFrame := fb.Bytes()
	relayed := func(frame []byte) string {
		return written(func(lw *LineWriter) {
			if err := lw.Relay(frame); err != nil {
				t.Errorf("Relay refused a good frame: %v", err)
			}
		})
	}
	if got, want := relayed(pairsFrame), written(func(lw *LineWriter) { lw.WritePairs(pairs) }); got != want {
		t.Errorf("relayed PAIRS frame rendered %q, WritePairs %q", got, want)
	}
	if got, want := relayed(recsFrame), written(func(lw *LineWriter) { lw.WriteRecords(recs) }); got != want {
		t.Errorf("relayed RECORDS frame rendered %q, WriteRecords %q", got, want)
	}
}

// FuzzLineRelay is the robustness harness of the one place a router
// parses shard bytes for an NDJSON caller: arbitrary input must never
// panic, a refused frame must render nothing, and nothing whose CRC or
// entry alignment is off may ever be accepted. Run
//
//	go test -fuzz FuzzLineRelay ./internal/httpapi
//
// to explore further.
func FuzzLineRelay(f *testing.F) {
	pairs := wire.AppendFrame(nil, wire.TypePairs, []byte{1, 0, 0, 0, 2, 0, 0, 0})
	records := wire.AppendFrame(nil, wire.TypeRecords, make([]byte, 2*wire.RecordSize))
	badCRC := append([]byte(nil), pairs...)
	badCRC[len(badCRC)-1] ^= 0xA5
	f.Add(pairs)
	f.Add(records)
	f.Add(badCRC)
	f.Add(wire.AppendFrame(nil, wire.TypePairs, []byte{1, 2, 3}))         // misaligned
	f.Add(wire.AppendFrame(nil, wire.TypeRecords, make([]byte, 21)))      // misaligned
	f.Add(wire.AppendFrame(nil, wire.TypeSummary, []byte(`{"pairs":1}`))) // not a DATA frame
	f.Add(wire.AppendFrame(nil, wire.TypePairs, nil))                     // empty batch
	f.Add(pairs[:wire.HeaderSize-1])                                      // short of a header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		w := &captureWriter{}
		lw := NewLineWriter(w)
		err := lw.Relay(raw)
		lw.Close() // end the stream: what it rendered is on the wire
		if err != nil {
			if len(w.got) != 0 || lw.Started() {
				t.Fatalf("refused frame (%v) still rendered %q", err, w.got)
			}
			return
		}
		if _, err := wire.Verify(raw); err != nil {
			t.Fatalf("accepted a frame failing its CRC: %x", raw)
		}
		entry := map[wire.Type]int{wire.TypePairs: wire.PairSize, wire.TypeRecords: wire.RecordSize}[wire.PeekType(raw)]
		if entry == 0 || (len(raw)-wire.HeaderSize)%entry != 0 {
			t.Fatalf("accepted a non-DATA or misaligned frame: %x", raw)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(w.got, &line); err != nil {
			t.Fatalf("accepted frame rendered malformed JSON %q: %v", w.got, err)
		}
	})
}
