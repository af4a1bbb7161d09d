package client

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"unijoin/internal/wire"
)

// frameJoinBody builds a well-formed binary join response: one pairs
// frame, a summary, and END.
func frameJoinBody(t *testing.T, pairs [][2]uint32, total int64) []byte {
	t.Helper()
	var payload []byte
	for _, p := range pairs {
		payload = append(payload, byte(p[0]), byte(p[0]>>8), byte(p[0]>>16), byte(p[0]>>24),
			byte(p[1]), byte(p[1]>>8), byte(p[1]>>16), byte(p[1]>>24))
	}
	body := wire.AppendFrame(nil, wire.TypePairs, payload)
	body = wire.AppendFrame(body, wire.TypeSummary,
		[]byte(`{"left":"a","right":"b","algorithm":"PQ","pairs":`+itoa(total)+`}`))
	return wire.AppendFrame(body, wire.TypeEnd, nil)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// stub returns a client against a server running fn.
func stub(t *testing.T, fn http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(fn)
	t.Cleanup(ts.Close)
	cl := New(ts.URL, nil)
	cl.PreferBinary = true
	return cl
}

// TestFramesNegotiated covers the happy path: the server honors the
// Accept header and the client decodes the frame stream.
func TestFramesNegotiated(t *testing.T) {
	body := frameJoinBody(t, [][2]uint32{{1, 2}, {3, 4}}, 2)
	cl := stub(t, func(w http.ResponseWriter, r *http.Request) {
		if !wire.Negotiates(r) {
			t.Error("PreferBinary client did not send the Accept header")
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(body)
	})
	var got [][2]uint32
	sum, err := cl.Join(context.Background(), JoinRequest{Left: "a", Right: "b"},
		func(l, r uint32) { got = append(got, [2]uint32{l, r}) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs != 2 || len(got) != 2 || got[0] != [2]uint32{1, 2} || got[1] != [2]uint32{3, 4} {
		t.Fatalf("pairs %v, summary %+v", got, sum)
	}
}

// TestFramesFallbackToNDJSON covers the negotiation fallback: an old
// server that ignores the Accept header and streams NDJSON must still
// be fully usable through a PreferBinary client.
func TestFramesFallbackToNDJSON(t *testing.T) {
	cl := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"pairs":[[5,6]]}`+"\n")
		io.WriteString(w, `{"summary":{"left":"a","right":"b","algorithm":"PQ","pairs":1,"left_records":1,"right_records":1,"elapsed_ms":1}}`+"\n")
	})
	var got [][2]uint32
	sum, err := cl.Join(context.Background(), JoinRequest{Left: "a", Right: "b"},
		func(l, r uint32) { got = append(got, [2]uint32{l, r}) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs != 1 || len(got) != 1 || got[0] != [2]uint32{5, 6} {
		t.Fatalf("fallback stream: pairs %v, summary %+v", got, sum)
	}
}

// TestCorruptFrameStreamIsInternal pins the error contract of the
// binary transport: corruption and truncation both surface as
// *APIError matching ErrInternal — a broken peer, not a bad request.
func TestCorruptFrameStreamIsInternal(t *testing.T) {
	good := frameJoinBody(t, [][2]uint32{{1, 2}}, 1)
	cases := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("this is not a frame stream at all")},
		{"bad crc", func() []byte {
			b := append([]byte(nil), good...)
			b[wire.HeaderSize] ^= 0xFF
			return b
		}()},
		{"truncated mid-frame", good[:wire.HeaderSize+3]},
		{"missing end", good[:len(good)-wire.HeaderSize]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := stub(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", wire.ContentType)
				w.Write(tc.body)
			})
			_, err := cl.Join(context.Background(), JoinRequest{Left: "a", Right: "b"}, nil)
			if err == nil {
				t.Fatal("corrupt stream produced no error")
			}
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("got %v, want the ErrInternal class", err)
			}
		})
	}
}

// TestWindowFramesRoundTrip checks the record path end to end at the
// client level, including the float32 packing.
func TestWindowFramesRoundTrip(t *testing.T) {
	// One RECORDS frame: rect (1.5, 2.5, 3.5, 4.5), ID 42.
	payload := make([]byte, 0, wire.RecordSize)
	for _, f := range []float32{1.5, 2.5, 3.5, 4.5} {
		bits := math.Float32bits(f)
		payload = append(payload, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	payload = append(payload, 42, 0, 0, 0)
	body := wire.AppendFrame(nil, wire.TypeRecords, payload)
	body = wire.AppendFrame(body, wire.TypeSummary, []byte(`{"relation":"a","records":1,"indexed":true,"elapsed_ms":1}`))
	body = wire.AppendFrame(body, wire.TypeEnd, nil)

	cl := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(body)
	})
	var got []RecordOut
	win := Rect{XHi: 10, YHi: 10}
	sum, err := cl.Window(context.Background(), WindowRequest{Relation: "a", Window: &win},
		func(rec RecordOut) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 1 || len(got) != 1 {
		t.Fatalf("records %v, summary %+v", got, sum)
	}
	want := RecordOut{ID: 42, Rect: Rect{XLo: 1.5, YLo: 2.5, XHi: 3.5, YHi: 4.5}}
	if got[0] != want {
		t.Fatalf("record %+v, want %+v", got[0], want)
	}
}
