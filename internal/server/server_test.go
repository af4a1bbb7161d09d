package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/jointest"
	"unijoin/internal/shard"
)

// testCatalog loads the two synthetic relations the acceptance test
// joins: "roads" indexed, "hydro" not, on a fixed universe.
func testCatalog(t *testing.T, n int) *unijoin.Catalog {
	t.Helper()
	u := unijoin.NewRect(0, 0, 1000, 1000)
	cat := unijoin.NewCatalog()
	cat.Workspace().SetUniverse(u)
	if _, err := cat.Load("roads", datagen.Uniform(1, n, u, 40), true); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Load("hydro", datagen.Uniform(2, n*3/4, u, 40), false); err != nil {
		t.Fatal(err)
	}
	return cat
}

// quietLogger drops request logs so -v output stays readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testServer(t *testing.T, cfg Config) (*Server, *client.Client, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL, ts.Client()), ts.URL
}

// joinPairs streams a join over HTTP and returns its pairs with the
// summary.
func joinPairs(t *testing.T, cl *client.Client, req client.JoinRequest) (jointest.Bag[unijoin.Pair], *client.JoinSummary) {
	t.Helper()
	got := jointest.Bag[unijoin.Pair]{}
	sum, err := cl.Join(context.Background(), req, func(l, r uint32) { got.Add(unijoin.Pair{Left: l, Right: r}) })
	if err != nil {
		t.Fatal(err)
	}
	return got, sum
}

// TestJoinOverHTTPMatchesInProcess is the end-to-end acceptance test:
// an indexed and a non-indexed join over HTTP must stream the same
// pairs the in-process Query API reports, under a summary that
// describes the inputs.
func TestJoinOverHTTPMatchesInProcess(t *testing.T) {
	cat := testCatalog(t, 800)
	_, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	roads, _ := cat.Get("roads")
	hydro, _ := cat.Get("hydro")

	for _, alg := range []unijoin.Algorithm{unijoin.AlgPQ, unijoin.AlgSSSJ, unijoin.AlgParallel} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := cat.Workspace().Query(roads, hydro).Algorithm(alg).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			req := client.JoinRequest{Left: "roads", Right: "hydro", Algorithm: alg.String()}
			got, summary := joinPairs(t, cl, req)
			jointest.Check(t, "HTTP stream against the in-process query", jointest.BagOf(res.PairSlice()), got, nil)
			if summary.Pairs != res.Count() {
				t.Fatalf("HTTP count %d, in-process %d", summary.Pairs, res.Count())
			}
			if summary.LeftRecords != roads.Pin().Len() || summary.RightRecords != hydro.Pin().Len() {
				t.Fatalf("summary records %d/%d", summary.LeftRecords, summary.RightRecords)
			}
			// Count-only agrees and is the same over JoinCount.
			cSum, err := cl.JoinCount(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if cSum.Pairs != res.Count() {
				t.Fatalf("count-only %d, want %d", cSum.Pairs, res.Count())
			}
		})
	}
}

func TestJoinWindowed(t *testing.T) {
	cat := testCatalog(t, 600)
	_, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()
	roads, _ := cat.Get("roads")
	hydro, _ := cat.Get("hydro")

	win := unijoin.NewRect(100, 100, 400, 500)
	res, err := cat.Workspace().Query(roads, hydro).Window(win).CountOnly().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := cl.JoinCount(ctx, client.JoinRequest{
		Left: "roads", Right: "hydro",
		Window: &client.Rect{XLo: 100, YLo: 100, XHi: 400, YHi: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs != res.Count() {
		t.Fatalf("windowed HTTP count %d, in-process %d", sum.Pairs, res.Count())
	}
	full, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs >= full.Pairs {
		t.Fatalf("window did not restrict the join: %d >= %d", sum.Pairs, full.Pairs)
	}
}

func TestWindowEndpoint(t *testing.T) {
	cat := testCatalog(t, 700)
	_, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	win := client.Rect{XLo: 200, YLo: 200, XHi: 600, YHi: 600}
	for _, rel := range []string{"roads", "hydro"} { // indexed and scan paths
		relation, _ := cat.Get(rel)
		want, err := relation.WindowQuery(ctx, unijoin.NewRect(200, 200, 600, 600), nil)
		if err != nil {
			t.Fatal(err)
		}
		var streamed int64
		sum, err := cl.Window(ctx, client.WindowRequest{Relation: rel, Window: &win},
			func(client.RecordOut) { streamed++ })
		if err != nil {
			t.Fatal(err)
		}
		if sum.Records != want || streamed != want {
			t.Fatalf("%s: HTTP window %d records (streamed %d), want %d", rel, sum.Records, streamed, want)
		}
		if sum.Indexed != relation.Pin().Indexed() {
			t.Fatalf("%s: summary indexed=%v", rel, sum.Indexed)
		}
	}
}

// TestServerTimeoutReturnsCancellationStatus is the acceptance
// criterion: a 1ms server-side timeout must produce the cancellation
// status code, not a hang. The join is big enough that 1ms can never
// finish it.
func TestServerTimeoutReturnsCancellationStatus(t *testing.T) {
	cat := testCatalog(t, 60_000)
	_, cl, _ := testServer(t, Config{Catalog: cat, Timeout: time.Millisecond})

	done := make(chan error, 1)
	go func() {
		_, err := cl.JoinCount(context.Background(), client.JoinRequest{
			Left: "roads", Right: "hydro", Algorithm: "SSSJ",
		})
		done <- err
	}()
	select {
	case err := <-done:
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("want *client.APIError, got %v", err)
		}
		if apiErr.Status != http.StatusGatewayTimeout || apiErr.Code != client.CodeCanceled {
			t.Fatalf("status=%d code=%q, want 504 %q", apiErr.Status, apiErr.Code, client.CodeCanceled)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed-out request hung")
	}

	// The per-request timeout_ms spelling takes the same path.
	_, cl2, _ := testServer(t, Config{Catalog: cat})
	_, err := cl2.JoinCount(context.Background(), client.JoinRequest{
		Left: "roads", Right: "hydro", Algorithm: "SSSJ", TimeoutMillis: 1,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeCanceled {
		t.Fatalf("timeout_ms path: %v", err)
	}
}

func TestErrorMapping(t *testing.T) {
	cat := testCatalog(t, 100)
	_, cl, base := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	check := func(t *testing.T, err error, status int, code string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("want *client.APIError, got %v", err)
		}
		if apiErr.Status != status || apiErr.Code != code {
			t.Fatalf("got %d %q, want %d %q", apiErr.Status, apiErr.Code, status, code)
		}
	}

	t.Run("unknown relation is 404", func(t *testing.T) {
		_, err := cl.JoinCount(ctx, client.JoinRequest{Left: "nope", Right: "hydro"})
		check(t, err, http.StatusNotFound, client.CodeNotFound)
	})
	t.Run("ST without indexes is 422", func(t *testing.T) {
		_, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro", Algorithm: "ST"})
		check(t, err, http.StatusUnprocessableEntity, client.CodeNeedsIndex)
	})
	t.Run("unknown algorithm is 400", func(t *testing.T) {
		_, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro", Algorithm: "quantum"})
		check(t, err, http.StatusBadRequest, client.CodeBadRequest)
	})
	t.Run("unknown window relation is 404", func(t *testing.T) {
		_, err := cl.Window(ctx, client.WindowRequest{Relation: "nope"}, nil)
		check(t, err, http.StatusNotFound, client.CodeNotFound)
	})
	t.Run("window without rectangle is 400", func(t *testing.T) {
		_, err := cl.Window(ctx, client.WindowRequest{Relation: "roads"}, nil)
		check(t, err, http.StatusBadRequest, client.CodeBadRequest)
	})
	t.Run("unknown route is 404", func(t *testing.T) {
		if err := cl.Health(ctx); err != nil { // sanity: the real route works
			t.Fatal(err)
		}
		resp, err := http.Get(base + "/v2/nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown route status %d", resp.StatusCode)
		}
	})
}

func TestRelationsAndStats(t *testing.T) {
	cat := testCatalog(t, 300)
	srv, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	rels, err := cl.Relations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 || rels[0].Name != "hydro" || rels[1].Name != "roads" {
		t.Fatalf("relations = %+v", rels)
	}
	if !rels[1].Indexed || rels[1].IndexBytes == 0 {
		t.Fatal("roads must be indexed with a non-empty R-tree")
	}
	if rels[0].Indexed || rels[0].IndexBytes != 0 {
		t.Fatal("hydro must not be indexed")
	}
	if rels[1].Records != 300 || rels[1].DataBytes != 300*20 {
		t.Fatalf("roads info = %+v", rels[1])
	}

	if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"}); err != nil {
		t.Fatal(err)
	}
	var streamed int64
	if _, err := cl.Join(ctx, client.JoinRequest{Left: "roads", Right: "hydro"},
		func(uint32, uint32) { streamed++ }); err != nil {
		t.Fatal(err)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Relations != 2 || stats.Joins != 2 || stats.Requests < 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PairsStreamed != streamed || streamed == 0 {
		t.Fatalf("pairs_streamed = %d, streamed %d", stats.PairsStreamed, streamed)
	}
	if got := srv.Stats(); got.Joins != 2 {
		t.Fatalf("in-process Stats() = %+v", got)
	}
}

// TestConcurrentRequests hammers one server with mixed joins and
// window queries; under -race this exercises the catalog's and the
// shared simulated disk's concurrency contract end to end.
func TestConcurrentRequests(t *testing.T) {
	cat := testCatalog(t, 500)
	_, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	want, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}

	algs := []string{"PQ", "SSSJ", "PBSM", "parallel"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				_, err := cl.Window(ctx, client.WindowRequest{
					Relation: "roads",
					Window:   &client.Rect{XLo: 0, YLo: 0, XHi: 500, YHi: 500},
				}, nil)
				errs <- err
				return
			}
			sum, err := cl.JoinCount(ctx, client.JoinRequest{
				Left: "roads", Right: "hydro", Algorithm: algs[i%4],
			})
			if err == nil && sum.Pairs != want.Pairs {
				err = fmt.Errorf("%s: got %d pairs, want %d", algs[i%4], sum.Pairs, want.Pairs)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelismClamped guards the service against a request sizing
// the parallel engine's partition structures with an absurd worker
// count: the handler clamps it, so the join still answers correctly.
func TestParallelismClamped(t *testing.T) {
	cat := testCatalog(t, 300)
	_, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	want, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1_000_000_000, -5} {
		sum, err := cl.JoinCount(ctx, client.JoinRequest{
			Left: "roads", Right: "hydro", Algorithm: "parallel", Parallelism: p,
		})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if sum.Pairs != want.Pairs {
			t.Fatalf("parallelism=%d: got %d pairs, want %d", p, sum.Pairs, want.Pairs)
		}
	}
}

func TestHealthz(t *testing.T) {
	cat := testCatalog(t, 50)
	_, cl, _ := testServer(t, Config{Catalog: cat})
	if err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStripeModeFilters covers the -stripe serving mode directly: a
// stripe server's count is the owned share of the join (a strict
// subset of the full join when the catalog holds the full relations),
// and stats/relations expose the stripe.
func TestStripeModeFilters(t *testing.T) {
	cat := testCatalog(t, 800)
	iv, err := shard.ParseInterval(":500")
	if err != nil {
		t.Fatal(err)
	}
	_, cl, _ := testServer(t, Config{Catalog: cat, Stripe: &iv})
	ctx := context.Background()

	full, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	// The catalog holds the full relations here, so the stripe filter
	// must report only the pairs whose reference point is below 500 —
	// more than zero, fewer than all.
	if full.Pairs <= 0 {
		t.Fatal("no owned pairs")
	}
	res, err := cat.Workspace().Query(mustGet(t, cat, "roads"), mustGet(t, cat, "hydro")).CountOnly().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if full.Pairs >= res.Count() {
		t.Fatalf("stripe count %d not below full count %d", full.Pairs, res.Count())
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripe == nil || stats.Stripe.Lo != nil || stats.Stripe.Hi == nil || *stats.Stripe.Hi != 500 {
		t.Fatalf("stats stripe = %+v, want [ , 500)", stats.Stripe)
	}
	infos, err := cl.Relations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 || infos[0].Stripe == nil {
		t.Fatal("relations do not expose the stripe")
	}
}

func mustGet(t *testing.T, cat *unijoin.Catalog, name string) *unijoin.Relation {
	t.Helper()
	rel, ok := cat.Get(name)
	if !ok {
		t.Fatalf("relation %q missing", name)
	}
	return rel
}

// TestOwnershipWithRepeatedIDs: nothing rejects a repeated record ID,
// and shard ownership must not care — it is decided from the two
// rectangles a kernel holds when it reports a pair, not from an ID →
// left-edge lookup (which keeps one edge per ID and so gave the far
// copy's edge to the near copy's pair). Two records share ID 1; only
// the first meets b's record, at reference point 400, so of the two
// shards cut at x = 500 exactly the left one reports a pair. Both
// input orders run, so the answer cannot hang on which copy a scan
// meets last.
func TestOwnershipWithRepeatedIDs(t *testing.T) {
	near := unijoin.Record{ID: 1, Rect: unijoin.NewRect(400, 0, 520, 10)}
	far := unijoin.Record{ID: 1, Rect: unijoin.NewRect(600, 500, 610, 510)}
	b := []unijoin.Record{{ID: 7, Rect: unijoin.NewRect(300, 0, 520, 10)}}
	ctx := context.Background()
	for name, a := range map[string][]unijoin.Record{
		"near first": {near, far}, "far first": {far, near},
	} {
		var clients []*client.Client
		for _, stripe := range []string{":500", "500:"} {
			iv, err := shard.ParseInterval(stripe)
			if err != nil {
				t.Fatal(err)
			}
			cat := unijoin.NewCatalog()
			cat.Workspace().SetUniverse(unijoin.NewRect(0, 0, 1000, 1000))
			for rel, recs := range map[string][]unijoin.Record{"a": a, "b": b} {
				if _, err := cat.Load(rel, iv.Slice(recs), true); err != nil {
					t.Fatal(err)
				}
			}
			_, cl, _ := testServer(t, Config{Catalog: cat, Stripe: &iv})
			clients = append(clients, cl)
		}
		for _, alg := range []string{"PQ", "parallel", "ST", "PBSM"} {
			var sum int64
			for _, cl := range clients {
				res, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b", Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				sum += res.Pairs
			}
			if sum != 1 {
				t.Errorf("%s, %s: the two shards report %d pairs, brute force finds 1", name, alg, sum)
			}
		}
	}
}
