package server

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"unijoin/client"
	"unijoin/internal/jointest"
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

	want, nsum := joinPairs(t, cl, req)
	got, bsum := joinPairs(t, bcl, req)
	jointest.Check(t, "the binary stream against the NDJSON stream", want, got, nil)
	if bsum.Pairs != nsum.Pairs || got.Len() != nsum.Pairs {
		t.Fatalf("binary summary %d pairs, streamed %d; NDJSON %d", bsum.Pairs, got.Len(), nsum.Pairs)
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

// TestBinaryWindowMatchesNDJSON is the window-query counterpart: the
// same records, rectangles included, over either transport.
func TestBinaryWindowMatchesNDJSON(t *testing.T) {
	cat := testCatalog(t, 800)
	_, cl, url := testServer(t, Config{Catalog: cat})
	bcl := client.New(url, nil)
	bcl.PreferBinary = true
	win := client.Rect{XLo: 100, YLo: 100, XHi: 600, YHi: 600}
	req := client.WindowRequest{Relation: "roads", Window: &win}

	want, got := jointest.Bag[client.RecordOut]{}, jointest.Bag[client.RecordOut]{}
	nsum, err := cl.Window(context.Background(), req, want.Add)
	if err != nil {
		t.Fatal(err)
	}
	bsum, err := bcl.Window(context.Background(), req, got.Add)
	if err != nil {
		t.Fatal(err)
	}
	jointest.Check(t, "the binary window stream against the NDJSON stream", want, got, nil)
	if bsum.Records != nsum.Records || got.Len() != nsum.Records || nsum.Records == 0 {
		t.Fatalf("binary window %d records (summary %d), NDJSON summary %d", got.Len(), bsum.Records, nsum.Records)
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
