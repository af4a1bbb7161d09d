package shard_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/shard"
)

// TestDistributedTraceTree is the acceptance test for distributed
// tracing: a traced join through client → router → 3 shards must
// yield, on the router's GET /v1/traces/{id}, one router.join tree
// with a scatter child per shard, each carrying that shard's
// server.join subtree with the partition/sweep/stream phases — and
// each shard must have recorded its own trace under the same request
// ID with the scatter leg's span ID as its parent. A windowed join that
// reaches one shard of the three then leaves one scatter child, "1 of
// 3" on the root, and the other shards' traces and scatter families
// untouched.
func TestDistributedTraceTree(t *testing.T) {
	rels := map[string][]unijoin.Record{
		"a": datagen.Uniform(7, 1200, universe, 25),
		"b": datagen.Uniform(8, 900, universe, 25),
	}
	plan, err := shard.PlanFromBoundaries(universe, []unijoin.Coord{333, 666})
	if err != nil {
		t.Fatal(err)
	}
	cl, router, _ := startFleet(t, plan, []string{"a", "b"}, rels, true)
	ctx := client.WithRequestID(context.Background(), "e2e-trace-1")

	sum, err := cl.Join(ctx, client.JoinRequest{
		Left: "a", Right: "b", Algorithm: "PBSM", Trace: true,
	}, func(uint32, uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Spans == nil || sum.Spans.Name != "router.join" {
		t.Fatalf("summary.spans = %+v, want a router.join tree", sum.Spans)
	}

	det, err := cl.TraceByID(ctx, "e2e-trace-1")
	if err != nil {
		t.Fatalf("router GET /v1/traces/{id}: %v", err)
	}
	root := det.Root
	if root.Name != "router.join" {
		t.Fatalf("root span = %q, want router.join", root.Name)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root has %d scatter children, want one per shard (3)", len(root.Children))
	}
	// The root wraps the whole scatter, so it can be no shorter than
	// the summary's elapsed (the slowest shard) and should sit within
	// handler overhead of it.
	if root.DurationMillis < sum.ElapsedMillis-1 {
		t.Fatalf("router root %vms shorter than merged elapsed %vms", root.DurationMillis, sum.ElapsedMillis)
	}
	if root.DurationMillis-sum.ElapsedMillis > 500 {
		t.Fatalf("router root %vms vs elapsed %vms: more than 500ms of unexplained overhead",
			root.DurationMillis, sum.ElapsedMillis)
	}

	seenShards := map[string]bool{}
	scatterIDs := map[string]string{} // shard endpoint → scatter span ID
	for _, sc := range root.Children {
		if sc.Name != "scatter" {
			t.Fatalf("router child span = %q, want scatter", sc.Name)
		}
		ep := sc.Attrs["shard"]
		if ep == "" {
			t.Fatalf("scatter span %s has no shard attribute", sc.ID)
		}
		seenShards[ep] = true
		scatterIDs[ep] = sc.ID
		if len(sc.Children) != 1 || sc.Children[0].Name != "server.join" {
			t.Fatalf("scatter[%s] children = %+v, want one grafted server.join", ep, sc.Children)
		}
		phases := map[string]bool{}
		for _, p := range sc.Children[0].Children {
			phases[p.Name] = true
		}
		for _, want := range []string{"partition", "sweep", "stream"} {
			if !phases[want] {
				t.Fatalf("scatter[%s] server.join phases = %v, missing %q", ep, phases, want)
			}
		}
		// The grafted subtree is rebased onto the leg's start, so it
		// must start at or after the scatter span and fit inside the
		// router root's window (within rounding).
		if sc.Children[0].StartMillis < sc.StartMillis-1 {
			t.Fatalf("scatter[%s] grafted tree starts at %vms, before the leg's %vms",
				ep, sc.Children[0].StartMillis, sc.StartMillis)
		}
	}
	if len(seenShards) != 3 {
		t.Fatalf("scatter spans name %d distinct shards, want 3: %v", len(seenShards), seenShards)
	}

	// Cross-process linkage: each shard recorded the same request ID,
	// with the router's scatter span ID as its trace's parent.
	for i, ep := range router.Endpoints() {
		shardCl := client.New(ep, nil)
		sdet, err := shardCl.TraceByID(ctx, "e2e-trace-1")
		if err != nil {
			t.Fatalf("shard %d GET /v1/traces/{id}: %v", i, err)
		}
		if sdet.Root.Name != "server.join" {
			t.Fatalf("shard %d root = %q, want server.join", i, sdet.Root.Name)
		}
		if want := scatterIDs[ep]; sdet.ParentSpan != want {
			t.Fatalf("shard %d parent span = %q, want the router's scatter span %q", i, sdet.ParentSpan, want)
		}
	}
	if root.Attrs["legs"] != "3" || root.Attrs["shards"] != "3" {
		t.Fatalf("root attrs %v, want legs=3 shards=3", root.Attrs)
	}

	// A window inside the middle stripe asks the middle shard alone, and
	// the trace says so: one scatter child — no zero-length leg for a
	// shard that was never called — "1 of 3" on the root, no trace on
	// the other shards, and their scatter families at rest.
	scatters := func() []int64 {
		stats, err := router.Stats(ctx) // itself one scatter call a shard
		if err != nil {
			t.Fatal(err)
		}
		var n []int64
		for _, ss := range stats.ShardStats {
			n = append(n, ss.ScatterRequests)
		}
		return n
	}
	before := scatters()
	ctx = client.WithRequestID(context.Background(), "e2e-trace-2")
	if _, err := cl.JoinCount(ctx, client.JoinRequest{
		Left: "a", Right: "b", Window: &client.Rect{XLo: 400, YLo: 0, XHi: 600, YHi: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range scatters() {
		if want := before[i] + 1 + int64(i%2); n != want { // the Stats call, and the join on shard 1
			t.Fatalf("shard %d has seen %d scatter calls, want %d", i, n, want)
		}
	}
	if det, err = cl.TraceByID(ctx, "e2e-trace-2"); err != nil {
		t.Fatal(err)
	}
	root = det.Root
	if root.Attrs["legs"] != "1" || root.Attrs["shards"] != "3" || len(root.Children) != 1 ||
		root.Children[0].Name != "scatter" || root.Children[0].Attrs["shard"] != router.Endpoints()[1] {
		t.Fatalf("root attrs %v with %d children, want legs=1 shards=3 and the middle shard's scatter leg alone", root.Attrs, len(root.Children))
	}
	for i, ep := range router.Endpoints() {
		if _, err := client.New(ep, nil).TraceByID(ctx, "e2e-trace-2"); (err == nil) != (i == 1) {
			t.Fatalf("shard %d trace of the pruned query: %v", i, err)
		}
	}
}

// TestFailedRoutedQueryIsTraced pins that a routed query which fails
// still leaves its span tree behind: the failing one is exactly the
// query an operator will look up. One of two shards answers every join
// with a typed error; the caller must still get that error, and the
// router's GET /v1/traces/{id} must show the tree with an error
// attribute on the root and on the failed scatter leg.
func TestFailedRoutedQueryIsTraced(t *testing.T) {
	rels := map[string][]unijoin.Record{
		"a": datagen.Uniform(7, 300, universe, 25),
		"b": datagen.Uniform(8, 200, universe, 25),
	}
	healthy := startShard(t, shard.Everything(), []string{"a", "b"}, rels, false)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		io.WriteString(w, `{"error":{"status":422,"code":"needs_index","message":"stub shard refuses"}}`)
	}))
	t.Cleanup(broken.Close)
	cl := client.New(frontOver(t, healthy, broken.URL), nil)
	ctx := client.WithRequestID(context.Background(), "failed-trace-1")

	_, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b"})
	if !errors.Is(err, client.ErrNeedsIndex) {
		t.Fatalf("join over a failing shard: %v, want the shard's typed error (ErrNeedsIndex)", err)
	}

	det, err := cl.TraceByID(ctx, "failed-trace-1")
	if err != nil {
		t.Fatalf("the failed query left no trace on the router: %v", err)
	}
	if det.Root.Name != "router.join" || det.Root.Attrs["error"] == "" {
		t.Fatalf("root = %q attrs %v, want router.join carrying an error attribute", det.Root.Name, det.Root.Attrs)
	}
	if len(det.Root.Children) != 2 {
		t.Fatalf("root has %d scatter children, want one per shard (2)", len(det.Root.Children))
	}
	var failed *client.Span
	for _, sc := range det.Root.Children {
		if sc.Name == "scatter" && sc.Attrs["shard"] == broken.URL {
			failed = sc
		}
	}
	if failed == nil || !strings.Contains(failed.Attrs["error"], "stub shard refuses") {
		t.Fatalf("the failed shard's scatter leg = %+v, want it present and carrying the shard's error", failed)
	}
}
