// Example served boots the spatial-join query service in-process —
// catalog, HTTP server, and Go client in one program — and walks
// through every endpoint: it loads two synthetic relations (one
// indexed), joins them indexed and non-indexed over HTTP, streams a
// windowed join, runs a window query, and reads back the server's
// stats, cross-checking each HTTP result against the in-process
// Query API. Run it from the repository root:
//
//	go run ./examples/served
//
// For the real long-lived binary, see cmd/sjserved.
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
)

func main() {
	ctx := context.Background()

	// 1. The catalog: named relations loaded once, resident across
	// requests. "roads" gets an R-tree; "hydro" stays non-indexed.
	universe := unijoin.NewRect(0, 0, 1000, 1000)
	cat := unijoin.NewCatalog()
	cat.Workspace().SetUniverse(universe)
	mustLoad(cat, "roads", datagen.Uniform(1, 40_000, universe, 30), true)
	mustLoad(cat, "hydro", datagen.Uniform(2, 25_000, universe, 30), false)

	// 2. The service, on an ephemeral port. cmd/sjserved wraps exactly
	// this with flags and graceful shutdown.
	srv := server.New(server.Config{
		Catalog: cat,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)), // keep the demo output clean
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// 3. The client. Everything below goes over real HTTP.
	cl := client.New(base, nil)
	if err := cl.Health(ctx); err != nil {
		log.Fatal(err)
	}

	rels, err := cl.Relations(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rels {
		fmt.Printf("relation %-6s %6d records  indexed=%-5v  %d data bytes\n",
			r.Name, r.Records, r.Indexed, r.DataBytes)
	}

	// 4. Joins: the paper's unified PQ join uses the R-tree on roads;
	// SSSJ ignores indexes and sorts both sides. Same answer, twice.
	for _, alg := range []string{"PQ", "SSSJ"} {
		sum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro", Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("join %-4s -> %d pairs in %.1fms\n", alg, sum.Pairs, sum.ElapsedMillis)
	}

	// 5. A windowed join, streaming pairs as they arrive.
	var streamed int
	win := client.Rect{XLo: 100, YLo: 100, XHi: 350, YHi: 350}
	sum, err := cl.Join(ctx, client.JoinRequest{
		Left: "roads", Right: "hydro", Algorithm: "parallel", Window: &win,
	}, func(l, r uint32) { streamed++ })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windowed parallel join -> %d pairs (%d streamed) in %.1fms\n",
		sum.Pairs, streamed, sum.ElapsedMillis)

	// Cross-check against the in-process Query API: the service is a
	// transport, not a different engine.
	roads, _ := cat.Get("roads")
	hydro, _ := cat.Get("hydro")
	res, err := cat.Workspace().Query(roads, hydro).
		Window(unijoin.NewRect(100, 100, 350, 350)).CountOnly().Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same join in-process     -> %d pairs (match=%v)\n", res.Count(), res.Count() == sum.Pairs)

	// 6. A window query: which roads intersect this rectangle?
	wsum, err := cl.Window(ctx, client.WindowRequest{Relation: "roads", Window: &win}, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Indexed or not, every window query cuts the relation's prepared
	// run, held in lower-y order, to the window's y-slab.
	fmt.Printf("window over roads        -> %d records (from the run's y-slab) in %.2fms\n",
		wsum.Records, wsum.ElapsedMillis)

	// 7. The server kept count of all of it.
	stats, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d requests, %d joins, %d windows, %d pairs streamed\n",
		stats.Requests, stats.Joins, stats.Windows, stats.PairsStreamed)
}

func mustLoad(cat *unijoin.Catalog, name string, recs []unijoin.Record, index bool) {
	if _, err := cat.Load(name, recs, index); err != nil {
		log.Fatal(err)
	}
}
