// Example sharded walks through stripe-sharded serving in one
// process: it plans shard boundaries from a catalog, boots three
// striped shard servers plus a scatter-gather router over them, and
// runs joins and window queries through the router, cross-checking
// every count against a single-process run — the distributed answer
// must be exact, not approximate. Run it from the repository root:
//
//	go run ./examples/sharded
//
// For a real multi-process fleet, see cmd/sjrouter and the README's
// "Sharded serving" walkthrough.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/server"
	"unijoin/internal/shard"
)

func main() {
	ctx := context.Background()
	universe := unijoin.NewRect(0, 0, 1000, 1000)
	roads := datagen.Uniform(1, 60_000, universe, 25)
	hydro := datagen.Uniform(2, 40_000, universe, 25)

	// 1. Plan the stripes. Boundaries are quantiles of sampled record
	// x-centers — the same sample-balanced cuts the parallel engine
	// sweeps, here lifted to process granularity. (A catalog exports
	// the same boundaries via Catalog.StripeBoundaries, with the
	// sample cached across queries.)
	plan := shard.NewPlan(universe, 3, roads, hydro)
	fmt.Printf("plan: %d shards, boundaries %v\n", plan.Shards(), plan.Boundaries())

	// 2. Boot one striped server per shard. Each loads only the
	// records overlapping its stripe (boundary-crossing records are
	// replicated) and filters every answer by its ownership interval
	// — exactly what `sjserved -stripe lo:hi` does.
	urls := make([]string, plan.Shards())
	for i := range urls {
		iv := plan.Interval(i)
		cat := unijoin.NewCatalogOn(workspaceOn(universe))
		mustLoad(cat, "roads", iv.Slice(roads))
		mustLoad(cat, "hydro", iv.Slice(hydro))
		srv := server.New(server.Config{Catalog: cat, Stripe: &iv, Logger: quiet()})
		urls[i] = serve(srv.Handler())
		r, _ := cat.Get("roads")
		h, _ := cat.Get("hydro")
		fmt.Printf("shard %d  stripe %-12s  roads %6d  hydro %6d\n",
			i, iv.String(), r.Pin().Len(), h.Pin().Len())
	}

	// 3. The router: verifies the fleet tiles the x-axis, then serves
	// the identical sjserved API — `cmd/sjrouter` wraps exactly this.
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := router.Verify(ctx); err != nil {
		log.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: quiet()})
	cl := client.New(serve(svc.Handler()), nil)

	// 4. Joins through the router: every shard joins its slice, the
	// router sums the counts. The merged answer equals a
	// single-process join bit for bit.
	single := unijoin.NewCatalogOn(workspaceOn(universe))
	mustLoad(single, "roads", roads)
	mustLoad(single, "hydro", hydro)
	sr, _ := single.Get("roads")
	sh, _ := single.Get("hydro")
	for _, alg := range []string{"PQ", "SSSJ", "parallel"} {
		sum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro", Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		a, _ := unijoin.ParseAlgorithm(alg)
		res, err := single.Workspace().Query(sr, sh).Algorithm(a).CountOnly().Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("join %-8s routed=%8d  single-process=%8d  match=%v  (%.1fms via %d shards)\n",
			alg, sum.Pairs, res.Count(), sum.Pairs == res.Count(), sum.ElapsedMillis, router.Shards())
	}

	// 5. A streamed windowed join and a window query, also exact:
	// shards drop replicated boundary records and foreign pairs, so
	// the merged streams carry no duplicates.
	win := client.Rect{XLo: 100, YLo: 100, XHi: 400, YHi: 400}
	streamed := 0
	wsum, err := cl.Join(ctx, client.JoinRequest{Left: "roads", Right: "hydro", Window: &win},
		func(l, r uint32) { streamed++ })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windowed join via router -> %d pairs (%d streamed)\n", wsum.Pairs, streamed)
	rsum, err := cl.Window(ctx, client.WindowRequest{Relation: "roads", Window: &win}, nil)
	if err != nil {
		log.Fatal(err)
	}
	n, err := sr.WindowQuery(ctx, unijoin.NewRect(100, 100, 400, 400), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window via router        -> %d records, single-process %d, match=%v\n",
		rsum.Records, n, rsum.Records == n)

	// 6. Fleet-wide stats, aggregated by the router.
	stats, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet stats: %d shards, %d requests, %d joins, %d pairs streamed\n",
		stats.Shards, stats.Requests, stats.Joins, stats.PairsStreamed)
}

func workspaceOn(u unijoin.Rect) *unijoin.Workspace {
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(u)
	return ws
}

func mustLoad(cat *unijoin.Catalog, name string, recs []unijoin.Record) {
	if _, err := cat.Load(name, recs, true); err != nil {
		log.Fatal(err)
	}
}

// serve exposes a handler on an ephemeral local port.
func serve(h http.Handler) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, h)
	return "http://" + ln.Addr().String()
}

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }
