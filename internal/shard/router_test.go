package shard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/jointest"
	"unijoin/internal/server"
	"unijoin/internal/shard"
)

var universe = unijoin.NewRect(0, 0, 1000, 1000)

// allAlgorithms is every join strategy the service accepts; the
// sharding contract must hold for each one.
var allAlgorithms = []string{"PQ", "SSSJ", "PBSM", "ST", "auto", "BFRJ", "parallel"}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startShard boots one sjserved-equivalent shard holding the slices
// of the given relations its interval loads.
func startShard(t *testing.T, iv shard.Interval, names []string, rels map[string][]unijoin.Record, index bool) string {
	t.Helper()
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(universe)
	cat := unijoin.NewCatalogOn(ws)
	for _, name := range names {
		if _, err := cat.Load(name, iv.Slice(rels[name]), index); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
	}
	// An unbounded interval models a server started without -stripe
	// (it owns everything); a bounded one enables the shard filters.
	cfg := server.Config{Catalog: cat, Logger: discard()}
	if !iv.Unbounded() {
		cfg.Stripe = &iv
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// startFleet shards the relations across the plan's stripes, fronts
// them with a router service, and returns a client speaking to it —
// the full path a production client takes: client → sjrouter →
// scatter → K × sjserved → gather.
func startFleet(t *testing.T, plan *shard.Plan, names []string, rels map[string][]unijoin.Record, index bool) (*client.Client, *shard.Router, string) {
	t.Helper()
	urls := make([]string, plan.Shards())
	for i := range urls {
		urls[i] = startShard(t, plan.Interval(i), names, rels, index)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Verify(context.Background()); err != nil {
		t.Fatalf("fleet verification: %v", err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	front := httptest.NewServer(svc.Handler())
	t.Cleanup(front.Close)
	return client.New(front.URL, nil), router, front.URL
}

// fixedBounds are hand-picked shard boundaries; a fleet of k is cut at
// the first k-1 of them.
var fixedBounds = []unijoin.Coord{140, 320, 500, 680, 810, 930}

// onCuts is the shared generator's boundary-hostile shape over
// fixedBounds — records ending, starting and lying exactly on every
// boundary, and crossing it — the left relation renumbered from idBase.
func onCuts(seed int64, idBase int) (a, b []unijoin.Record) {
	in := jointest.ShapeNamed("on-cuts").Gen(seed, universe, fixedBounds)
	for i := range in.A {
		in.A[i].ID = uint32(idBase + i)
	}
	return in.A, in.B
}

// boundaryCases is two relations dense in the worst cases of the
// ownership rules, from the shared generator: records ending, starting,
// lying on and crossing every one of fixedBounds, duplicate rectangles
// under distinct IDs, and records spanning every stripe.
func boundaryCases() (a, b []unijoin.Record) {
	// Of the duplicates a few dozen will do, and a spanning input's
	// first two records are the ones that span.
	for _, take := range []struct {
		shape string
		n     int
	}{{"on-cuts", 1000}, {"duplicates", 40}, {"spanning", 2}} {
		in := jointest.ShapeNamed(take.shape).Gen(41, universe, fixedBounds)
		a, b = append(a, in.A[:min(take.n, len(in.A))]...), append(b, in.B[:min(take.n, len(in.B))]...)
	}
	for i := range a {
		a[i].ID = uint32(i)
	}
	for i := range b {
		b[i].ID = uint32(i)
	}
	return a, b
}

// joinPairs streams a join and returns its pairs, whose number the
// summary must report.
func joinPairs(t *testing.T, cl *client.Client, req client.JoinRequest) jointest.Bag[unijoin.Pair] {
	t.Helper()
	got := jointest.Bag[unijoin.Pair]{}
	sum, err := cl.Join(context.Background(), req, func(l, r uint32) { got.Add(unijoin.Pair{Left: l, Right: r}) })
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if sum.Pairs != got.Len() {
		t.Fatalf("%+v: the summary counts %d pairs, %d were streamed", req, sum.Pairs, got.Len())
	}
	return got
}

// windowRecords streams a window query over relation a and returns its
// records by ID, whose number the summary must report.
func windowRecords(t *testing.T, cl *client.Client, win client.Rect) jointest.Bag[client.RecordOut] {
	t.Helper()
	got := jointest.Bag[client.RecordOut]{}
	sum, err := cl.Window(context.Background(), client.WindowRequest{Relation: "a", Window: &win}, got.Add)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != got.Len() {
		t.Fatalf("the window summary counts %d records, %d were streamed", sum.Records, got.Len())
	}
	return got
}

// wantWindow is the reference answer of a window query in the form the
// client receives it.
func wantWindow(recs []unijoin.Record, win unijoin.Rect) jointest.Bag[client.RecordOut] {
	want := jointest.Bag[client.RecordOut]{}
	for r, n := range jointest.Window(recs, win) {
		want[client.RecordOut{ID: r.ID, Rect: client.Rect{
			XLo: float64(r.Rect.XLo), YLo: float64(r.Rect.YLo), XHi: float64(r.Rect.XHi), YHi: float64(r.Rect.YHi)}}] = n
	}
	return want
}

// planFor cuts a fleet of k: at fixedBounds when the data sits on them,
// at the quantile planner's boundaries otherwise.
func planFor(t *testing.T, k int, fixed bool, a, b []unijoin.Record) *shard.Plan {
	t.Helper()
	if !fixed {
		return shard.NewPlan(universe, k, a, b)
	}
	plan, err := shard.PlanFromBoundaries(universe, fixedBounds[:k-1])
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRouterJoinEqualsSingleProcess is the sharding correctness
// property: for every algorithm and shard count, a join (and window
// query) executed through the router over K striped sjserved shards
// returns exactly the reference's pairs and count, on uniform,
// clustered, and boundary-adversarial inputs, windowed and unwindowed.
func TestRouterJoinEqualsSingleProcess(t *testing.T) {
	terr := datagen.NewTerrain(31, universe, 8)
	advA, advB := boundaryCases()
	cases := []struct {
		name  string
		a, b  []unijoin.Record
		fixed bool
	}{
		{name: "uniform", a: datagen.Uniform(21, 2000, universe, 25), b: datagen.Uniform(22, 1500, universe, 25)},
		{name: "clustered",
			a: datagen.Roads(terr, 32, 2000, datagen.RoadParams{}),
			b: datagen.Hydro(terr, 33, 1200, datagen.HydroParams{})},
		{name: "adversarial", a: advA, b: advB, fixed: true},
	}
	win := unijoin.NewRect(100, 100, 450, 450)
	winDTO := client.Rect{XLo: 100, YLo: 100, XHi: 450, YHi: 450}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rels := map[string][]unijoin.Record{"a": tc.a, "b": tc.b}
			wantAll := jointest.Join(tc.a, tc.b, nil)
			wantWin := jointest.Join(tc.a, tc.b, &win).Len()
			for _, k := range []int{1, 2, 4, 7} {
				cl, _, _ := startFleet(t, planFor(t, k, tc.fixed, tc.a, tc.b), []string{"a", "b"}, rels, true)
				ctx := context.Background()
				for _, alg := range allAlgorithms {
					what := fmt.Sprintf("k=%d %s", k, alg)
					req := client.JoinRequest{Left: "a", Right: "b", Algorithm: alg}
					jointest.CheckJoin(t, what, tc.a, tc.b, wantAll, joinPairs(t, cl, req))
					if sum, err := cl.JoinCount(ctx, req); err != nil || sum.Pairs != wantAll.Len() {
						t.Fatalf("%s: routed count %d (%v), the reference finds %d", what, sum.Pairs, err, wantAll.Len())
					}
					req.Window = &winDTO
					if sum, err := cl.JoinCount(ctx, req); err != nil || sum.Pairs != wantWin {
						t.Fatalf("%s: routed windowed count %d (%v), the reference finds %d", what, sum.Pairs, err, wantWin)
					}
				}
				// The selection counterpart: window queries dedup
				// replicated boundary records by left-edge ownership.
				jointest.Check(t, fmt.Sprintf("k=%d window query", k), wantWindow(tc.a, win), windowRecords(t, cl, winDTO), nil)
			}
		})
	}
}

// TestRouterMetadataAndErrors covers the router's merged metadata
// endpoints and its typed error propagation.
func TestRouterMetadataAndErrors(t *testing.T) {
	a := datagen.Uniform(51, 1200, universe, 25)
	b := datagen.Uniform(52, 900, universe, 25)
	rels := map[string][]unijoin.Record{"a": a, "b": b}
	names := []string{"a", "b"}
	plan := shard.NewPlan(universe, 3, a, b)
	cl, router, _ := startFleet(t, plan, names, rels, false) // no indexes
	ctx := context.Background()

	infos, err := cl.Relations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("relations: got %d, want 2", len(infos))
	}
	for _, info := range infos {
		if info.Shards != plan.Shards() {
			t.Fatalf("relation %s: Shards = %d, want %d", info.Name, info.Shards, plan.Shards())
		}
		if info.Records < int64(len(rels[info.Name])) {
			t.Fatalf("relation %s: merged records %d < input %d (shards lost records)",
				info.Name, info.Records, len(rels[info.Name]))
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != plan.Shards() {
		t.Fatalf("stats.Shards = %d, want %d", stats.Shards, plan.Shards())
	}

	// Typed errors surface through the router: unknown relation is
	// ErrNotFound, an index-requiring algorithm on unindexed shards
	// is ErrNeedsIndex.
	if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "nope"}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown relation: got %v, want ErrNotFound", err)
	}
	if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b", Algorithm: "ST"}); !errors.Is(err, client.ErrNeedsIndex) {
		t.Fatalf("ST without indexes: got %v, want ErrNeedsIndex", err)
	}

	// A fleet of >1 shards where one serves no stripe must be
	// refused: it would double-count pairs.
	full := startShard(t, shard.Everything(), names, rels, false)
	bad, err := shard.NewRouter([]string{router.Endpoints()[0], full}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Verify(ctx); err == nil {
		t.Fatal("fleet with an unstriped shard passed verification")
	}

	// A one-shard fleet whose shard serves a bounded stripe would
	// answer with a subset of the data — also refused.
	lone, err := shard.NewRouter(router.Endpoints()[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.Verify(ctx); err == nil {
		t.Fatal("single bounded-stripe shard passed verification")
	}
}
