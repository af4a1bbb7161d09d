package shard_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
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
func startShard(t testing.TB, iv shard.Interval, names []string, rels map[string][]unijoin.Record, index bool) string {
	t.Helper()
	return startShardOver(t, universe, iv, names, rels, index)
}

// startShardOver is startShard for data over another region.
func startShardOver(t testing.TB, region unijoin.Rect, iv shard.Interval, names []string, rels map[string][]unijoin.Record, index bool) string {
	t.Helper()
	ts := httptest.NewServer(shardHandler(t, region, iv, names, rels, index))
	t.Cleanup(ts.Close)
	return ts.URL
}

// shardHandler is the handler of the shard startShardOver boots.
func shardHandler(t testing.TB, region unijoin.Rect, iv shard.Interval, names []string, rels map[string][]unijoin.Record, index bool) http.Handler {
	t.Helper()
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(region)
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
	return server.New(cfg).Handler()
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

// shardRequests scrapes a shard's sj_requests_total for one endpoint,
// every status added up.
func shardRequests(t testing.TB, url, endpoint string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var n int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if series, value, ok := strings.Cut(sc.Text(), " "); ok &&
			strings.HasPrefix(series, `sj_requests_total{endpoint="`+endpoint+`",`) {
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", sc.Text(), err)
			}
			n += v
		}
	}
	return n
}

// TestRouterAsksOnlyTheShardsAWindowTouches: over fleets of 1, 2, 4 and
// 7, window queries and windowed joins — streamed as frames, as NDJSON
// and count-only — answer exactly as the reference does, and the shards
// that saw the request (their sj_requests_total moved) are exactly those
// whose interval Loads the window. The data is boundary-hostile and
// holds the records that reach in from the far left; the windows have
// an edge on each cut and one float to either side of it, lie along a
// cut with no width, are a point, span every cut, and miss the universe.
func TestRouterAsksOnlyTheShardsAWindowTouches(t *testing.T) {
	a, b := boundaryCases()
	reach := jointest.ShapeNamed("reaching-in").Gen(43, universe, fixedBounds)
	for _, r := range reach.A {
		a = append(a, unijoin.Record{ID: uint32(len(a)), Rect: r.Rect})
	}
	for _, r := range reach.B {
		b = append(b, unijoin.Record{ID: uint32(len(b)), Rect: r.Rect})
	}
	rels := map[string][]unijoin.Record{"a": a, "b": b}
	ctx := context.Background()
	for _, k := range []int{1, 2, 4, 7} {
		plan := planFor(t, k, true, a, b)
		ncl, router, front := startFleet(t, plan, []string{"a", "b"}, rels, true)
		bcl := client.New(front, nil)
		bcl.PreferBinary = true
		urls := router.Endpoints()

		wins := []unijoin.Rect{
			unijoin.NewRect(555, 555, 555, 555),      // a point
			unijoin.NewRect(-50, 300, 1050, 600),     // across every cut
			unijoin.NewRect(1100, 0, 1200, 1000),     // right of the universe
			unijoin.NewRect(-300, 400, -100, 500),    // left of it
			unijoin.NewRect(960, 0, 990, 1000),       // strictly inside the last stripe
			unijoin.NewRect(1e30, -1e30, 1e30, 1e30), // finite, and far out
		}
		for _, c := range fixedBounds[:k-1] {
			before, after := math.Nextafter32(c, 0), math.Nextafter32(c, 2000)
			for _, edge := range []unijoin.Coord{before, c, after} {
				wins = append(wins,
					unijoin.NewRect(edge-40, 0, edge, 1000),  // right edge at the cut
					unijoin.NewRect(edge, 200, edge+40, 900), // left edge at it
				)
			}
			wins = append(wins, unijoin.NewRect(c, 0, c, 1000)) // no width, along the cut
		}
		for _, win := range wins {
			dto := client.Rect{XLo: float64(win.XLo), YLo: float64(win.YLo), XHi: float64(win.XHi), YHi: float64(win.YHi)}
			var touched []int
			for i := 0; i < plan.Shards(); i++ {
				if plan.Interval(i).Loads(win) {
					touched = append(touched, i)
				}
			}
			// asked runs one request and returns the shards it reached.
			asked := func(endpoint string, run func()) []int {
				was := make([]int64, len(urls))
				for i, url := range urls {
					was[i] = shardRequests(t, url, endpoint)
				}
				run()
				var moved []int
				for i, url := range urls {
					switch d := shardRequests(t, url, endpoint) - was[i]; d {
					case 0:
					case 1:
						moved = append(moved, i)
					default:
						t.Fatalf("k=%d window %v: shard %d saw %d %s requests for one query", k, win, i, d, endpoint)
					}
				}
				return moved
			}
			check := func(what, endpoint string, run func()) {
				t.Helper()
				if got := asked(endpoint, run); !slices.Equal(got, touched) {
					t.Fatalf("k=%d window %v, %s: asked shards %v, the window touches %v", k, win, what, got, touched)
				}
			}

			wantRecs := wantWindow(a, win)
			for name, cl := range map[string]*client.Client{"NDJSON": ncl, "frames": bcl} {
				check("window query over "+name, "window", func() {
					jointest.Check(t, fmt.Sprintf("k=%d window %v over %s", k, win, name), wantRecs, windowRecords(t, cl, dto), nil)
				})
			}
			check("window count", "window", func() {
				sum, err := ncl.Window(ctx, client.WindowRequest{Relation: "a", Window: &dto, CountOnly: true}, nil)
				if err != nil || sum.Records != wantRecs.Len() {
					t.Fatalf("k=%d window %v: routed count %d (%v), the reference finds %d", k, win, sum.Records, err, wantRecs.Len())
				}
			})

			wantPairs := jointest.Join(a, b, &win)
			for _, alg := range []string{"PQ", "ST"} { // the resident kernel, and one on the simulator
				req := client.JoinRequest{Left: "a", Right: "b", Algorithm: alg, Window: &dto}
				for name, cl := range map[string]*client.Client{"NDJSON": ncl, "frames": bcl} {
					check(alg+" join over "+name, "join", func() {
						jointest.CheckJoin(t, fmt.Sprintf("k=%d window %v %s over %s", k, win, alg, name), a, b, wantPairs, joinPairs(t, cl, req))
					})
				}
				check(alg+" join count", "join", func() {
					if sum, err := ncl.JoinCount(ctx, req); err != nil || sum.Pairs != wantPairs.Len() {
						t.Fatalf("k=%d window %v %s: routed count %d (%v), the reference finds %d", k, win, alg, sum.Pairs, err, wantPairs.Len())
					}
				})
			}
		}
	}
}

// TestRouterWindowBeyondFloat32: a JSON 1e39 is finite as the float64
// the request carries and ±Inf as the float32 a window is made of. The
// window [+Inf, +Inf] meets no interval of a tiling, and the router must
// still send it somewhere: a routed request answers exactly as a single
// server does — nothing found, or the typed 404 for an unknown relation
// — on both endpoints, for both signs, and for the window from -Inf to
// +Inf, which is everything.
func TestRouterWindowBeyondFloat32(t *testing.T) {
	a, b := datagen.Uniform(71, 400, universe, 25), datagen.Uniform(72, 300, universe, 25)
	rels := map[string][]unijoin.Record{"a": a, "b": b}
	names := []string{"a", "b"}
	routed, _, _ := startFleet(t, shard.NewPlan(universe, 3, a, b), names, rels, true)
	direct := client.New(startShard(t, shard.Everything(), names, rels, true), nil)
	ctx := context.Background()
	for _, win := range []client.Rect{
		{XLo: 1e39, YLo: 0, XHi: 1e39, YHi: 1000},
		{XLo: -1e39, YLo: 0, XHi: -1e39, YHi: 1000},
		{XLo: -1e39, YLo: -1e39, XHi: 1e39, YHi: 1e39},
	} {
		for _, rel := range []string{"a", "nope"} {
			var got [2]string
			for i, cl := range []*client.Client{direct, routed} {
				ws, werr := cl.Window(ctx, client.WindowRequest{Relation: rel, Window: &win, CountOnly: true}, nil)
				js, jerr := cl.JoinCount(ctx, client.JoinRequest{Left: rel, Right: "b", Window: &win})
				if (werr == nil) != (rel == "a") || (jerr == nil) != (rel == "a") {
					t.Fatalf("window %v on %q: window query %v, join %v", win, rel, werr, jerr)
				}
				if rel == "a" {
					got[i] = fmt.Sprintf("%d records, %d pairs", ws.Records, js.Pairs)
				} else if !errors.Is(werr, client.ErrNotFound) || !errors.Is(jerr, client.ErrNotFound) {
					t.Fatalf("window %v on %q: window query %v, join %v, want ErrNotFound from both", win, rel, werr, jerr)
				}
			}
			if got[0] != got[1] {
				t.Fatalf("window %v on %q: the server answers %s, the fleet %s", win, rel, got[0], got[1])
			}
		}
	}
}

// TestRouterStripeTable: the router has one stripe table, the one
// Verify validated. A verified router places appends by it without
// asking the fleet again; a router nobody verified never fetches on the
// query path — it asks every shard, which is always right — and
// validates the fleet when the first append needs the table, after
// which its queries prune too; a fleet whose stripes do not tile is
// refused by that append as Verify would refuse it, and its queries go
// on asking every shard.
func TestRouterStripeTable(t *testing.T) {
	a, b := datagen.Uniform(81, 400, universe, 25), datagen.Uniform(82, 300, universe, 25)
	rels := map[string][]unijoin.Record{"a": a, "b": b}
	names := []string{"a", "b"}
	plan, err := shard.PlanFromBoundaries(universe, []unijoin.Coord{333, 666})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grown := uniformBatch(83, 10, 10_000) // appended before the first window query
	batch := wireRecords(grown)
	inMiddle := client.WindowRequest{Relation: "a", Window: &client.Rect{XLo: 400, YLo: 0, XHi: 600, YHi: 1000}, CountOnly: true}
	want := jointest.Window(slices.Concat(a, grown), unijoin.NewRect(400, 0, 600, 1000)).Len()
	// seen is how many requests each shard has served on an endpoint.
	seen := func(router *shard.Router, endpoint string) (n []int64) {
		for _, url := range router.Endpoints() {
			n = append(n, shardRequests(t, url, endpoint))
		}
		return n
	}
	windowAsks := func(router *shard.Router, shards ...int64) {
		t.Helper()
		was := seen(router, "window")
		if sum, err := router.Window(ctx, inMiddle, nil); err != nil || sum.Records != want {
			t.Fatalf("window count %v (%v), the reference finds %d", sum, err, want)
		}
		for i, n := range seen(router, "window") {
			if n-was[i] != shards[i] {
				t.Fatalf("shard %d served %d window requests, want %v across the fleet", i, n-was[i], shards)
			}
		}
	}

	_, verified, _ := startFleet(t, plan, names, rels, true)
	stats := seen(verified, "stats")
	if _, err := verified.Append(ctx, "a", batch); err != nil {
		t.Fatal(err)
	}
	if now := seen(verified, "stats"); !slices.Equal(now, stats) {
		t.Fatalf("an append through a verified router fetched stats again: %v, then %v", stats, now)
	}
	windowAsks(verified, 0, 1, 0)

	unverified, err := shard.NewRouter(verified.Endpoints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	windowAsks(unverified, 1, 1, 1)
	if now := seen(unverified, "stats"); !slices.Equal(now, stats) {
		t.Fatalf("a query through an unverified router fetched stats: %v, then %v", stats, now)
	}
	for range 2 {
		if _, err := unverified.Append(ctx, "a", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range seen(unverified, "stats") {
		if n != stats[i]+1 {
			t.Fatalf("shard %d served %d stats requests for two appends, want the one that validated the fleet", i, n-stats[i])
		}
	}
	windowAsks(unverified, 0, 1, 0)

	// The same shards with the middle one missing: a gap from 333 to 666.
	gapped, err := shard.NewRouter([]string{verified.Endpoints()[0], verified.Endpoints()[2]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gapped.Append(ctx, "a", batch); err == nil || !strings.Contains(err.Error(), "do not abut") {
		t.Fatalf("an append to a fleet with a gap: %v, want the tiling refused", err)
	}
	was := seen(gapped, "window")
	if _, err := gapped.Window(ctx, inMiddle, nil); err != nil {
		t.Fatal(err)
	}
	if now := seen(gapped, "window"); now[0] != was[0]+1 || now[1] != was[1]+1 {
		t.Fatalf("a query through a router that failed validation pruned: %v, then %v", was, now)
	}
}
