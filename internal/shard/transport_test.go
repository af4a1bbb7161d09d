package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/jointest"
	"unijoin/internal/server"
	"unijoin/internal/shard"
	"unijoin/internal/wire"
)

// TestBinaryTransportEqualsNDJSON is the transport-parity property:
// for every algorithm, shard count, and windowing, what a client
// receives over the negotiated binary transport equals what it receives
// over NDJSON equals the reference — on uniform and boundary-adversarial
// inputs, through the full client → router relay → shards path.
func TestBinaryTransportEqualsNDJSON(t *testing.T) {
	advA, advB := boundaryCases()
	cases := []struct {
		name  string
		a, b  []unijoin.Record
		fixed bool
	}{
		{name: "uniform", a: datagen.Uniform(61, 1500, universe, 25), b: datagen.Uniform(62, 1100, universe, 25)},
		{name: "adversarial", a: advA, b: advB, fixed: true},
	}
	win := unijoin.NewRect(100, 100, 450, 450)
	winDTO := client.Rect{XLo: 100, YLo: 100, XHi: 450, YHi: 450}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rels := map[string][]unijoin.Record{"a": tc.a, "b": tc.b}
			wants := map[*unijoin.Rect]jointest.Bag[unijoin.Pair]{nil: jointest.Join(tc.a, tc.b, nil), &win: jointest.Join(tc.a, tc.b, &win)}
			for _, k := range []int{1, 2, 4} {
				ncl, _, url := startFleet(t, planFor(t, k, tc.fixed, tc.a, tc.b), []string{"a", "b"}, rels, true)
				bcl := client.New(url, nil)
				bcl.PreferBinary = true
				for _, alg := range allAlgorithms {
					for w, want := range wants {
						req := client.JoinRequest{Left: "a", Right: "b", Algorithm: alg}
						if w != nil {
							req.Window = &winDTO
						}
						what := fmt.Sprintf("k=%d %s windowed=%v", k, alg, w != nil)
						jointest.CheckJoin(t, what+" over NDJSON", tc.a, tc.b, want, joinPairs(t, ncl, req))
						jointest.CheckJoin(t, what+" over frames", tc.a, tc.b, want, joinPairs(t, bcl, req))
					}
				}
				// Window queries: the records, rectangles included, must
				// agree too.
				want := wantWindow(tc.a, win)
				jointest.Check(t, fmt.Sprintf("k=%d window query over NDJSON", k), want, windowRecords(t, ncl, winDTO), nil)
				jointest.Check(t, fmt.Sprintf("k=%d window query over frames", k), want, windowRecords(t, bcl, winDTO), nil)
			}
		})
	}
}

// frameShardStub serves POST /v1/join with a fixed pre-framed binary
// body, standing in for a shard whose exact output bytes the test
// controls.
func frameShardStub(t *testing.T, body []byte) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		if !wire.Negotiates(r) {
			t.Error("router did not negotiate the binary transport with the shard")
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouterRelayZeroDecode proves the router's relay performs zero
// per-entry decode end to end: a shard's PAIRS frame with a
// deliberately broken payload CRC — which any decode/re-encode cycle
// would either reject or silently repair — must come out of the
// router front byte-identical, CRC still broken.
func TestRouterRelayZeroDecode(t *testing.T) {
	payload := []byte{7, 0, 0, 0, 9, 0, 0, 0} // one pair (7, 9)
	corrupt := wire.AppendFrame(nil, wire.TypePairs, payload)
	corrupt[8] ^= 0xA5 // break the CRC
	sum, err := json.Marshal(&client.JoinSummary{Left: "a", Right: "b", Algorithm: "PQ", Pairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), corrupt...)
	body = wire.AppendFrame(body, wire.TypeSummary, sum)
	body = wire.AppendFrame(body, wire.TypeEnd, nil)

	router, err := shard.NewRouter([]string{frameShardStub(t, body)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)

	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/join",
		bytes.NewReader([]byte(`{"left":"a","right":"b"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !wire.IsFrameResponse(resp.Header.Get("Content-Type")) {
		t.Fatalf("front answered %q, want a frame stream", resp.Header.Get("Content-Type"))
	}

	sc := wire.NewScanner(resp.Body)
	typ, raw, err := sc.Next()
	if err != nil || typ != wire.TypePairs {
		t.Fatalf("first frame: type %v, err %v; want relayed pairs", typ, err)
	}
	if !bytes.Equal(raw, corrupt) {
		t.Fatalf("router modified the relayed frame:\n got %x\nwant %x", raw, corrupt)
	}
	if _, err := wire.Verify(raw); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("relayed CRC verifies as %v — the router must have re-encoded the payload", err)
	}
	typ, raw, err = sc.Next()
	if err != nil || typ != wire.TypeSummary {
		t.Fatalf("second frame: type %v, err %v; want the merged summary", typ, err)
	}
	var merged client.JoinSummary
	if err := json.Unmarshal(raw[wire.HeaderSize:], &merged); err != nil || merged.Pairs != 1 {
		t.Fatalf("merged summary: %+v, err %v", merged, err)
	}
	if typ, _, err = sc.Next(); err != nil || typ != wire.TypeEnd {
		t.Fatalf("third frame: type %v, err %v; want end", typ, err)
	}
}

// frontOver fronts the given shard endpoints with a router service and
// returns the front's base URL.
func frontOver(t *testing.T, shards ...string) string {
	t.Helper()
	router, err := shard.NewRouter(shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// postJoin sends a raw join request to a front, offering the frame
// transport or not, and returns the response with its whole body.
func postJoin(t *testing.T, front string, frames bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, front+"/v1/join",
		bytes.NewReader([]byte(`{"left":"a","right":"b"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if frames {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// joinLines parses an NDJSON join response body.
func joinLines(t *testing.T, body []byte) []client.JoinLine {
	t.Helper()
	var lines []client.JoinLine
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var l client.JoinLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("front wrote a malformed NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestRouterRejectsNDJSONShard is the frames-only fleet contract:
// frames are the one protocol between router and shard, so a shard
// that ignores the offer and answers NDJSON is a failing shard. On
// either front transport the caller gets a well-formed typed error —
// a plain HTTP status, since nothing was rendered — and not one pair
// of the shard's NDJSON answer.
func TestRouterRejectsNDJSONShard(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		// An old shard: ignores Accept, always answers NDJSON.
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"pairs":[[1,2],[3,4]]}`+"\n")
		io.WriteString(w, `{"summary":{"left":"a","right":"b","algorithm":"PQ","pairs":2,"left_records":2,"right_records":2,"elapsed_ms":1}}`+"\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	front := frontOver(t, ts.URL)

	for _, frames := range []bool{false, true} {
		resp, body := postJoin(t, front, frames)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("frames=%v: status %d, want 500; body %q", frames, resp.StatusCode, body)
		}
		var envelope struct {
			Error *client.APIError `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
			t.Fatalf("frames=%v: body %q is not the error envelope (%v)", frames, body, err)
		}
		if envelope.Error.Code != client.CodeInternal {
			t.Fatalf("frames=%v: error code %q, want %q", frames, envelope.Error.Code, client.CodeInternal)
		}
		if bytes.Contains(body, []byte("pairs")) {
			t.Fatalf("frames=%v: the shard's NDJSON answer leaked into the response: %q", frames, body)
		}

		cl := client.New(front, nil)
		cl.PreferBinary = frames
		pairs := 0
		_, err := cl.Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"},
			func(l, r uint32) { pairs++ })
		if !errors.Is(err, client.ErrInternal) {
			t.Fatalf("frames=%v: client error = %v, want the ErrInternal class", frames, err)
		}
		if pairs != 0 {
			t.Fatalf("frames=%v: %d pairs delivered from a rejected shard", frames, pairs)
		}
	}
}

// TestMidStreamShardFailureNDJSON is TestMidStreamShardFailureBinary
// for an NDJSON caller: the frames the router relayed before the shard
// died were rendered as data lines, and the response must then close
// with exactly one terminal error line of the internal-error class.
func TestMidStreamShardFailureNDJSON(t *testing.T) {
	goodFrame := wire.AppendFrame(nil, wire.TypePairs, []byte{1, 0, 0, 0, 2, 0, 0, 0})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(goodFrame)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Die mid-frame: a header fragment, then the connection ends.
		w.Write([]byte{wire.Magic0, wire.Magic1, wire.Version})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	front := frontOver(t, ts.URL)

	resp, body := postJoin(t, front, false)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("status %d, Content-Type %q; want a started NDJSON stream",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	lines := joinLines(t, body)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want one data line and one error line: %q", len(lines), body)
	}
	if len(lines[0].Pairs) != 1 || lines[0].Pairs[0] != [2]uint32{1, 2} {
		t.Fatalf("data line = %+v, want the relayed pair (1, 2)", lines[0])
	}
	if e := lines[1].Error; e == nil || e.Code != client.CodeInternal || lines[1].Summary != nil {
		t.Fatalf("terminal line = %+v, want an error of the internal class and no summary", lines[1])
	}

	// And through the decoding client.
	pairs := 0
	_, err := client.New(front, nil).Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"},
		func(l, r uint32) { pairs++ })
	if !errors.Is(err, client.ErrInternal) {
		t.Fatalf("mid-stream failure error = %v, want the ErrInternal class", err)
	}
	if pairs != 1 {
		t.Fatalf("rendered %d pairs before the failure, want 1", pairs)
	}
}

// TestCorruptShardFrameNDJSON is the other half of the zero-decode
// bargain: the frame→frame relay leaves the CRC to the end client, but
// a front rendering NDJSON consumes the payload itself, so it must
// check. A shard frame with a broken CRC is not rendered; the response
// ends in one terminal error line of the internal class; and the
// refusal cancels the rest of the scatter.
func TestCorruptShardFrameNDJSON(t *testing.T) {
	good := wire.AppendFrame(nil, wire.TypePairs, []byte{1, 0, 0, 0, 2, 0, 0, 0})
	corrupt := wire.AppendFrame(nil, wire.TypePairs, []byte{7, 0, 0, 0, 9, 0, 0, 0})
	corrupt[len(corrupt)-1] ^= 0xA5
	sum, err := json.Marshal(&client.JoinSummary{Left: "a", Right: "b", Algorithm: "PQ", Pairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte(nil), good...), corrupt...)
	body = wire.AppendFrame(body, wire.TypeSummary, sum)
	body = wire.AppendFrame(body, wire.TypeEnd, nil)

	// The second shard commits to a stream and then just waits to be
	// cancelled.
	started, canceled := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		w.Header().Set("Content-Type", wire.ContentType)
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			close(canceled)
		case <-time.After(30 * time.Second):
		}
	})
	waiting := httptest.NewServer(mux)
	t.Cleanup(waiting.Close)
	// The first shard answers only once the second leg's handler runs:
	// answering at once lets the refusal cancel the scatter before that
	// leg's request has left the router, and then there is no handler to
	// observe the cancellation.
	mux = http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Error("the second leg never reached its shard")
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(body)
	})
	corrupting := httptest.NewServer(mux)
	t.Cleanup(corrupting.Close)
	front := frontOver(t, corrupting.URL, waiting.URL)

	_, got := postJoin(t, front, false)
	lines := joinLines(t, got)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want the good pair's line and one error line: %q", len(lines), got)
	}
	if len(lines[0].Pairs) != 1 || lines[0].Pairs[0] != [2]uint32{1, 2} {
		t.Fatalf("data line = %+v, want the verified pair (1, 2)", lines[0])
	}
	if e := lines[1].Error; e == nil || e.Code != client.CodeInternal {
		t.Fatalf("terminal line = %+v, want an error of the internal class", lines[1])
	}
	if bytes.Contains(got, []byte("[7,9]")) {
		t.Fatalf("the corrupt frame's pair was rendered: %q", got)
	}
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("the refused frame did not cancel the other shard's leg")
	}
}

// TestMidStreamShardFailureBinary pins the failure contract of the
// relay path: when a shard dies after the router has already relayed
// DATA frames, the front must close its response with a well-formed
// ERROR frame (mapping to the internal-error class) and END — never a
// silently truncated stream.
func TestMidStreamShardFailureBinary(t *testing.T) {
	goodFrame := wire.AppendFrame(nil, wire.TypePairs, []byte{1, 0, 0, 0, 2, 0, 0, 0})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(goodFrame)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Die mid-frame: a header fragment, then the connection ends.
		w.Write([]byte{wire.Magic0, wire.Magic1, wire.Version})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	router, err := shard.NewRouter([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)

	// Raw inspection first: the front's stream must decode cleanly
	// frame by frame and terminate DATA… ERROR END.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/join",
		bytes.NewReader([]byte(`{"left":"a","right":"b"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := wire.NewDecoder(resp.Body)
	var types []wire.Type
	var apiErr client.APIError
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("front stream is not well-formed after shard failure: %v", err)
		}
		types = append(types, f.Type)
		if f.Type == wire.TypeError {
			if err := json.Unmarshal(f.Payload, &apiErr); err != nil {
				t.Fatalf("bad ERROR frame payload: %v", err)
			}
		}
	}
	if len(types) < 3 || types[0] != wire.TypePairs ||
		types[len(types)-2] != wire.TypeError || types[len(types)-1] != wire.TypeEnd {
		t.Fatalf("frame sequence %v; want pairs… error end", types)
	}
	if apiErr.Code == "" {
		t.Fatal("ERROR frame carried no error code")
	}

	// And through the decoding client: relayed pairs arrive, then the
	// typed error, matching the internal-error class.
	bcl := client.New(front.URL, nil)
	bcl.PreferBinary = true
	var pairs int
	_, err = bcl.Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"},
		func(l, r uint32) { pairs++ })
	if err == nil {
		t.Fatal("mid-stream shard failure surfaced no error")
	}
	if !errors.Is(err, client.ErrInternal) {
		t.Fatalf("mid-stream failure error = %v, want the ErrInternal class", err)
	}
	if pairs != 1 {
		t.Fatalf("relayed %d pairs before the failure, want 1", pairs)
	}
}

// TestRelayKeepsShardConnections pins what putting every routed query
// on the frame path must not cost: the router reads each shard stream
// through its END frame to the body's EOF, so the HTTP transport can
// reuse the shard connection for the next scatter instead of dialing
// again — whichever transport the caller speaks.
func TestRelayKeepsShardConnections(t *testing.T) {
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(universe)
	cat := unijoin.NewCatalogOn(ws)
	for name, recs := range map[string][]unijoin.Record{
		"a": datagen.Uniform(7, 300, universe, 25),
		"b": datagen.Uniform(8, 300, universe, 25),
	} {
		if _, err := cat.Load(name, recs, true); err != nil {
			t.Fatal(err)
		}
	}
	var dialed atomic.Int64
	ts := httptest.NewUnstartedServer(server.New(server.Config{Catalog: cat, Logger: discard()}).Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	front := frontOver(t, ts.URL)

	for _, frames := range []bool{false, true} {
		cl := client.New(front, nil)
		cl.PreferBinary = frames
		for i := 0; i < 40; i++ {
			if _, err := cl.Join(context.Background(), client.JoinRequest{Left: "a", Right: "b"}, func(l, r uint32) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One connection serves all 80 sequential scatters; allow one
	// re-dial for a keep-alive race.
	if n := dialed.Load(); n > 2 {
		t.Fatalf("router dialed its shard %d times for 80 sequential joins, want the connection reused", n)
	}
}
