package server

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/wire"
)

// TestBinaryJoinMatchesNDJSON pins the server-side transport parity:
// a negotiated binary join must stream exactly the pair set and
// summary of the default NDJSON transport, and the frame metric
// families must account for the stream.
func TestBinaryJoinMatchesNDJSON(t *testing.T) {
	cat := testCatalog(t, 800)
	srv, cl, url := testServer(t, Config{Catalog: cat})
	bcl := client.New(url, nil)
	bcl.PreferBinary = true
	ctx := context.Background()
	req := client.JoinRequest{Left: "roads", Right: "hydro", Algorithm: "PQ"}

	want := map[unijoin.Pair]bool{}
	nsum, err := cl.Join(ctx, req, func(l, r uint32) { want[unijoin.Pair{Left: l, Right: r}] = true })
	if err != nil {
		t.Fatal(err)
	}

	got := map[unijoin.Pair]bool{}
	bsum, err := bcl.Join(ctx, req, func(l, r uint32) { got[unijoin.Pair{Left: l, Right: r}] = true })
	if err != nil {
		t.Fatal(err)
	}
	if bsum.Pairs != nsum.Pairs || int64(len(got)) != nsum.Pairs {
		t.Fatalf("binary summary %d pairs, streamed %d; NDJSON %d", bsum.Pairs, len(got), nsum.Pairs)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pair %v missing from the binary stream", p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("spurious pair %v in the binary stream", p)
		}
	}

	// The frame families saw the stream: at least one pairs frame, one
	// summary, one end; byte counts at least a header per frame.
	frames := srv.front.Frames
	for _, typ := range []wire.Type{wire.TypePairs, wire.TypeSummary, wire.TypeEnd} {
		if n := frames.With(typ.String()).Value(); n < 1 {
			t.Fatalf("sj_frames_total{type=%q} = %d, want ≥ 1", typ, n)
		}
		if b := srv.front.FrameBytes.With(typ.String()).Value(); b < wire.HeaderSize {
			t.Fatalf("sj_frame_bytes_total{type=%q} = %d, want ≥ %d", typ, b, wire.HeaderSize)
		}
	}

	// Count-only over the binary transport: no DATA frames, same count.
	pairsBefore := frames.With(wire.TypePairs.String()).Value()
	csum, err := bcl.JoinCount(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if csum.Pairs != nsum.Pairs {
		t.Fatalf("binary count-only %d, want %d", csum.Pairs, nsum.Pairs)
	}
	if after := frames.With(wire.TypePairs.String()).Value(); after != pairsBefore {
		t.Fatalf("count-only join emitted %d pairs frames", after-pairsBefore)
	}
}

// TestBinaryWindowMatchesNDJSON is the window-query counterpart.
func TestBinaryWindowMatchesNDJSON(t *testing.T) {
	cat := testCatalog(t, 800)
	_, cl, url := testServer(t, Config{Catalog: cat})
	bcl := client.New(url, nil)
	bcl.PreferBinary = true
	ctx := context.Background()
	win := client.Rect{XLo: 100, YLo: 100, XHi: 600, YHi: 600}
	req := client.WindowRequest{Relation: "roads", Window: &win}

	want := map[uint32]client.RecordOut{}
	nsum, err := cl.Window(ctx, req, func(r client.RecordOut) { want[r.ID] = r })
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint32]client.RecordOut{}
	bsum, err := bcl.Window(ctx, req, func(r client.RecordOut) { got[r.ID] = r })
	if err != nil {
		t.Fatal(err)
	}
	if bsum.Records != nsum.Records || int64(len(got)) != nsum.Records {
		t.Fatalf("binary window %d records (summary %d), NDJSON %d", len(got), bsum.Records, nsum.Records)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("record %d missing from the binary stream", id)
		}
		if g.Rect != w.Rect {
			t.Fatalf("record %d rect %+v over binary, %+v over NDJSON", id, g.Rect, w.Rect)
		}
	}
}

// TestBinaryErrorMapping checks both failure modes of a negotiated
// stream: pre-stream failures stay plain HTTP errors (the status line
// is still available), and the typed-error contract holds through the
// binary client exactly as through NDJSON.
func TestBinaryErrorMapping(t *testing.T) {
	cat := testCatalog(t, 200)
	_, _, url := testServer(t, Config{Catalog: cat})
	bcl := client.New(url, nil)
	bcl.PreferBinary = true
	ctx := context.Background()

	if _, err := bcl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "nope"}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown relation over binary: got %v, want ErrNotFound", err)
	}
	// hydro is unindexed, so ST must refuse — before any frame is
	// written, meaning a real HTTP 422 even though the request asked
	// for frames.
	_, err := bcl.JoinCount(ctx, client.JoinRequest{Left: "hydro", Right: "roads", Algorithm: "ST"})
	if !errors.Is(err, client.ErrNeedsIndex) {
		t.Fatalf("ST without index over binary: got %v, want ErrNeedsIndex", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("pre-stream binary failure did not arrive as a plain HTTP error: %v", err)
	}
}
