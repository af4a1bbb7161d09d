// Command sjserved is the long-lived spatial-join query service: it
// loads named relations into an in-memory catalog once — from sjgen
// record files or generated synthetically at startup — keeps them
// resident (indexed ones as a packed R-tree plus a delta run of
// appended records), and serves join and window queries and appends
// over HTTP until told to stop.
//
// Usage:
//
//	sjserved [-addr :8470] [-timeout 30s] [-stripe lo:hi]
//	         [-load name=path.bin]... [-uniform name=N]... [-tiger SET[:scale]]...
//	         [-index all|none|name,name...] [-region x1,y1,x2,y2] [-seed n]
//
// Relation sources (repeatable, mixable):
//
//	-load roads=/data/ny.roads.bin   a 20-byte-record file written by sjgen
//	-uniform a=100000                N uniform rectangles over -region
//	-tiger NY:0.01                   the synthetic TIGER-like set, loaded
//	                                 as NY.roads and NY.hydro
//
// Endpoints: POST /v1/join, POST /v1/window,
// POST /v1/relations/{name}/records, GET /v1/relations, GET /v1/stats,
// GET /v1/healthz, GET /v1/traces, GET /v1/traces/{id} and
// GET /metrics — internal/httpapi's one handler, which sjrouter
// answers through too. Join and window responses stream binary frames
// to a caller whose Accept header offers them and NDJSON otherwise;
// see the client package for the wire types.
//
// With -stripe lo:hi the process serves one shard of a fleet: each
// relation keeps only the records whose x-interval overlaps [lo, hi)
// (either side may be empty for the unbounded outer shards), and
// every join pair and window record is filtered by the shard
// ownership rules of internal/shard, so a cmd/sjrouter summing the
// fleet's responses returns exactly the single-process answer.
// Synthetic sources (-uniform, -tiger) generate the full dataset
// deterministically from -seed before slicing, so a fleet started
// with identical generation flags and distinct stripes shards one
// consistent dataset.
//
// Every request runs under a context canceled by client disconnect
// and bounded by -timeout (a request's own timeout_ms may shorten
// it). SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests
// get 10 seconds to finish, then the process exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"unijoin"
	"unijoin/internal/datagen"
	"unijoin/internal/httpapi"
	"unijoin/internal/server"
	"unijoin/internal/shard"
	"unijoin/internal/tiger"
)

func main() {
	var (
		addr      = flag.String("addr", ":8470", "listen address")
		timeout   = flag.Duration("timeout", 30*time.Second, "server-side ceiling per join/window request (0 = none)")
		index     = flag.String("index", "all", "which relations to index: all, none, or name,name,...")
		region    = flag.String("region", "0,0,1000,1000", "universe for -uniform relations: x1,y1,x2,y2")
		maxExt    = flag.Float64("maxext", 20, "max rectangle extent for -uniform relations")
		seed      = flag.Int64("seed", 1997, "generation seed for synthetic relations")
		stripeStr = flag.String("stripe", "", "serve one stripe shard lo:hi of the data (either side may be empty; see internal/shard)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
		traces    = flag.Int("traces", 0, "recent request traces to keep for GET /v1/traces (0 = default capacity)")
		slowQuery = flag.Duration("slowquery", 0, "log a warning with the span breakdown for requests at least this slow (0 = off)")
		loads     []string
		unis      []string
		tigers    []string
	)
	repeatable := func(name, usage string, into *[]string) {
		flag.Func(name, usage+" (repeatable)", func(v string) error {
			*into = append(*into, v)
			return nil
		})
	}
	repeatable("load", "load name=path.bin", &loads)
	repeatable("uniform", "generate name=N uniform rectangles", &unis)
	repeatable("tiger", "generate a TIGER-like set SET[:scale] as SET.roads + SET.hydro", &tigers)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if len(loads)+len(unis)+len(tigers) == 0 {
		fail(errors.New("no relations: give at least one -load, -uniform, or -tiger"))
	}
	var stripe *shard.Interval
	if *stripeStr != "" {
		iv, err := shard.ParseInterval(*stripeStr)
		if err != nil {
			fail(err)
		}
		stripe = &iv
	}

	cat, err := buildCatalog(log, loads, unis, tigers, *region, *maxExt, *seed, *index, stripe)
	if err != nil {
		fail(err)
	}

	srv := server.New(server.Config{
		Catalog: cat, Timeout: *timeout, Logger: log, Stripe: stripe,
		Traces: *traces, SlowQuery: *slowQuery,
	})
	log.Info("serving", "addr", *addr, "relations", cat.Len(), "timeout", timeout.String())
	if err := httpapi.Serve(log, *addr, *pprofAddr, srv.Handler()); err != nil {
		fail(err)
	}
}

// buildCatalog loads every requested relation and builds the
// requested indexes, logging each load. With a stripe, each relation
// keeps only its shard slice — the records whose x-interval overlaps
// the stripe — after the full set is read or generated, so synthetic
// generation stays deterministic across a fleet.
func buildCatalog(log *slog.Logger, loads, unis, tigers []string,
	region string, maxExt float64, seed int64, index string, stripe *shard.Interval) (*unijoin.Catalog, error) {
	u, err := unijoin.ParseRect(region)
	if err != nil {
		return nil, err
	}
	// explicitIndex holds the -index name list (nil for all/none);
	// after loading, every listed name must exist — a typo silently
	// leaving a relation unindexed is exactly the startup error a
	// long-lived service wants to fail loudly on.
	var explicitIndex map[string]bool
	switch index {
	case "all", "none", "":
	default:
		explicitIndex = make(map[string]bool)
		for _, n := range strings.Split(index, ",") {
			explicitIndex[strings.TrimSpace(n)] = false
		}
	}
	indexed := func(name string) bool {
		switch {
		case index == "all":
			return true
		case explicitIndex != nil:
			if _, ok := explicitIndex[name]; ok {
				explicitIndex[name] = true
				return true
			}
			return false
		default: // "none" or empty
			return false
		}
	}

	cat := unijoin.NewCatalog()
	add := func(name string, recs []unijoin.Record) error {
		total := len(recs)
		if stripe != nil {
			recs = stripe.Slice(recs)
		}
		rel, err := cat.Load(name, recs, indexed(name))
		if err != nil {
			return err
		}
		pv := rel.Pin()
		if stripe != nil {
			log.Info("loaded relation shard", "name", name, "stripe", stripe.String(),
				"records", pv.Len(), "of", total, "indexed", pv.Indexed())
			return nil
		}
		log.Info("loaded relation", "name", name, "records", pv.Len(),
			"indexed", pv.Indexed(), "data_bytes", pv.DataBytes(), "index_bytes", pv.IndexBytes())
		return nil
	}

	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -load %q: want name=path", spec)
		}
		recs, err := unijoin.ReadRecordFile(path)
		if err != nil {
			return nil, err
		}
		if err := add(name, recs); err != nil {
			return nil, err
		}
	}
	for _, spec := range unis {
		name, countStr, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -uniform %q: want name=N", spec)
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -uniform count %q", countStr)
		}
		// Distinct per-relation seeds so two -uniform relations differ.
		if err := add(name, datagen.Uniform(seed+int64(len(cat.Names())), n, u, maxExt)); err != nil {
			return nil, err
		}
	}
	for _, spec := range tigers {
		setName, scaleStr, hasScale := strings.Cut(spec, ":")
		scale := 0.01
		if hasScale {
			s, err := strconv.ParseFloat(scaleStr, 64)
			if err != nil || s <= 0 || s > 1 {
				return nil, fmt.Errorf("bad -tiger scale %q", scaleStr)
			}
			scale = s
		}
		ts, err := tiger.SpecByName(setName)
		if err != nil {
			return nil, err
		}
		cfg := tiger.Config{Scale: scale, Seed: seed, Clusters: 40}
		roads, hydro := cfg.Generate(ts)
		if err := add(ts.Name+".roads", roads); err != nil {
			return nil, err
		}
		if err := add(ts.Name+".hydro", hydro); err != nil {
			return nil, err
		}
	}
	for name, used := range explicitIndex {
		if !used {
			return nil, fmt.Errorf("-index names unknown relation %q (have: %s)",
				name, strings.Join(cat.Names(), ", "))
		}
	}
	return cat, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sjserved:", err)
	os.Exit(1)
}
