package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/httpapi"
	"unijoin/internal/iosim"
	"unijoin/internal/parallel"
	"unijoin/internal/server"
	"unijoin/internal/shard"
	"unijoin/internal/stream"
	"unijoin/internal/sweep"
	"unijoin/internal/wire"
)

// Layer probes. Each times one package's public entry points from
// the benchmark process, on the data of the workload the layer
// matters to, single goroutine unless stated. A probe repeats its
// call probeReps times and reports the median; every call is a span.
// They are the per-layer budget: what a served op spends where,
// measured without touching the programs.

// probeReps is how often each probe repeats its call.
const probeReps = 15

// probeBatch is the batch size the serving layers emit (the server's
// DefaultBatchPairs): encode and decode probes use the same framing.
const probeBatch = server.DefaultBatchPairs

// probes runs the layer probes and collects metric values by name.
type probes struct {
	ctx  context.Context
	seed int64
	log  *spanLog
	out  map[string]float64
}

// step is one call of a probe series. An unnamed step is set-up: it
// runs untimed and leaves no span.
type step struct {
	name string
	fn   func() error
}

// series runs the steps in order, reps times over, under one parent
// span, and returns each step's durations in milliseconds (nil for
// set-up steps), one per repetition. Steps whose times are compared
// with each other belong in one series: on a shared box the speed of
// the machine drifts between one second and the next, and interleaving
// exposes every step to the same drift.
func (p *probes) series(name string, reps int, steps ...step) ([][]float64, error) {
	parent := p.log.add(0, "probe."+name, "", "", time.Now(), 0)
	defer func() { p.log.finish(parent, time.Now()) }()
	ms := make([][]float64, len(steps))
	for range reps {
		for i, s := range steps {
			start := time.Now()
			err := s.fn()
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("probe %s %s: %w", name, s.name, err)
			}
			if s.name != "" {
				p.log.add(parent, s.name, "", "", start, d)
				ms[i] = append(ms[i], float64(d)/1e6)
			}
		}
	}
	return ms, nil
}

// timed runs fn reps times and returns the median duration in
// milliseconds. setup, if non-nil, runs untimed before each repetition.
func (p *probes) timed(name string, reps int, setup, fn func() error) (float64, error) {
	if setup == nil {
		setup = func() error { return nil }
	}
	ms, err := p.series(name, reps, step{fn: setup}, step{name, fn})
	if err != nil {
		return 0, err
	}
	return median(ms[1]), nil
}

// medianDiff returns the median of a[i] − b[i].
func medianDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// runProbes measures every layer on the two datasets.
func runProbes(ctx context.Context, seed int64, log *spanLog, tig, uni *dataset, batches [][]geom.Record) (map[string]float64, error) {
	p := &probes{ctx: ctx, seed: seed, log: log, out: make(map[string]float64)}
	for _, step := range []func() error{
		func() error { return p.storeAndEngine(tig) },
		func() error { return p.traversal(uni) },
		func() error { return p.ingest(uni, batches) },
		func() error { return p.serverOwnership(uni, batches) },
		func() error { return p.encoders(uni, tig) },
		func() error { return p.clientAndRouter(uni) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// catalogOf loads both relations of d, indexed, on one workspace with
// d's universe — the resident state sjserved builds from the same
// files. A non-nil interval keeps only the shard's slice.
func catalogOf(d *dataset, iv *shard.Interval) (*unijoin.Catalog, *unijoin.Relation, *unijoin.Relation, error) {
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(d.Universe)
	cat := unijoin.NewCatalogOn(ws)
	var rels [2]*unijoin.Relation
	for i, rel := range []relation{d.Left, d.Right} {
		recs := rel.Recs
		if iv != nil {
			recs = iv.Slice(recs)
		}
		r, err := cat.Load(rel.Name, recs, true)
		if err != nil {
			return nil, nil, nil, err
		}
		rels[i] = r
	}
	return cat, rels[0], rels[1], nil
}

// storeAndEngine covers the direct_count path on the TIGER-like data:
// stream/iosim, sweep, parallel, and the public query that strings
// them together.
func (p *probes) storeAndEngine(d *dataset) error {
	a, b := d.Left.Recs, d.Right.Recs

	// The budget of one served count: materialize both relations from
	// the simulated store (stream/iosim), run the in-memory engine with
	// one worker as the workloads request it (parallel), and the public
	// query that does both (unijoin) — one series, so the three are
	// comparable and the gap between the whole and its parts means
	// something.
	store := iosim.NewStore(iosim.DefaultPageSize)
	fa, err := stream.WriteAll(store, stream.Records, a)
	if err != nil {
		return err
	}
	fb, err := stream.WriteAll(store, stream.Records, b)
	if err != nil {
		return err
	}
	readBoth := func() error {
		if _, err := stream.ReadAll(fa, stream.Records); err != nil {
			return err
		}
		_, err := stream.ReadAll(fb, stream.Records)
		return err
	}
	var rep parallel.Report
	var partition, sweepWall []float64
	engine := func() error {
		rep, err = parallel.Join(p.ctx, a, b, parallel.Options{Universe: d.Universe, Workers: 1})
		partition = append(partition, float64(rep.PartitionWall)/1e6)
		sweepWall = append(sweepWall, float64(rep.SweepWall)/1e6)
		return err
	}
	cat, left, right, err := catalogOf(d, nil)
	if err != nil {
		return err
	}
	ws := cat.Workspace()
	query := func(configure func(*unijoin.Query)) func() error {
		return func() error {
			q := ws.Query(left, right).Algorithm(unijoin.AlgParallel).Parallelism(1)
			configure(q)
			res, err := q.Run(p.ctx)
			if err == nil && res.Count() != d.Join.Pairs {
				err = fmt.Errorf("%d pairs, reference %d", res.Count(), d.Join.Pairs)
			}
			return err
		}
	}
	countOnly := query(func(q *unijoin.Query) { q.CountOnly() })
	before := ws.Store().Counters()
	if err := countOnly(); err != nil {
		return fmt.Errorf("probe iosim.pages_read_per_join: %w", err)
	}
	p.out["iosim.pages_read_per_join"] = float64(ws.Store().Counters().Sub(before).Reads())

	ms, err := p.series("budget", probeReps,
		step{"stream.read_all", readBoth},
		step{"parallel.join", engine},
		step{"unijoin.query_parallel", countOnly},
		step{"unijoin.query_parallel_emit", query(func(q *unijoin.Query) { q.EmitBatch(func([]unijoin.Pair) {}) })})
	if err != nil {
		return err
	}
	if rep.Pairs != d.Join.Pairs {
		return fmt.Errorf("probe parallel.join: %d pairs, reference %d", rep.Pairs, d.Join.Pairs)
	}
	readAll, joinMS, queryMS := median(ms[0]), median(ms[1]), median(ms[2])
	p.out["stream.read_all_ms"] = readAll
	p.out["parallel.join_ms"] = joinMS
	p.out["parallel.partition_ms"] = median(partition)
	p.out["parallel.sweep_ms"] = median(sweepWall)
	p.out["parallel.local_fraction"] = rep.LocalFraction()
	p.out["parallel.replication"] = rep.Replication
	p.out["unijoin.query_parallel_ms"] = queryMS
	p.out["unijoin.query_parallel_emit_ms"] = median(ms[3])
	p.out["unijoin.budget_gap_share"] = (queryMS - readAll - joinMS) / queryMS

	// The same read from two goroutines sharing the store: the time a
	// read gains is time waited on the store's one mutex.
	var mu sync.Mutex
	var contended []float64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	parent := p.log.add(0, "probe.stream.read_all_c2", "", "", time.Now(), 0)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range probeReps {
				start := time.Now()
				if errs[g] = readBoth(); errs[g] != nil {
					return
				}
				d := time.Since(start)
				p.log.add(parent, "stream.read_all_c2", "", "", start, d)
				mu.Lock()
				contended = append(contended, float64(d)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.log.finish(parent, time.Now())
	if err := errors.Join(errs...); err != nil {
		return err
	}
	p.out["stream.read_all_c2_ms"] = median(contended)

	// sweep: the serial kernel on y-sorted copies.
	var sa, sb []geom.Record
	byY := func(recs []geom.Record) {
		sort.Slice(recs, func(i, j int) bool { return geom.ByLowerY(recs[i], recs[j]) < 0 })
	}
	var st sweep.Stats
	if ms, err = p.series("sweep", probeReps,
		step{fn: func() error {
			sa, sb = append(sa[:0], a...), append(sb[:0], b...)
			return nil
		}},
		step{"sweep.sort", func() error {
			byY(sa)
			byY(sb)
			return nil
		}},
		step{"sweep.join", func() error {
			st, err = sweep.JoinSlices(p.ctx, sa, sb, func() sweep.Structure {
				return sweep.NewStripedFor(d.Universe, sweep.DefaultStrips)
			}, nil)
			return err
		}}); err != nil {
		return err
	}
	if st.Pairs != d.Join.Pairs {
		return fmt.Errorf("probe sweep.join: %d pairs, reference %d", st.Pairs, d.Join.Pairs)
	}
	p.out["sweep.sort_ms"] = median(ms[1])
	p.out["sweep.join_ms"] = median(ms[2])
	p.out["sweep.comparisons_per_pair"] = float64(st.Comparisons) / float64(max(st.Pairs, 1))

	// The window probe walks the same seeded windows as routed_window.
	rng := newWindowRNG(p.seed, 0)
	windowMS, err := p.timed("unijoin.window_query", 50*probeReps, nil, func() error {
		_, err := left.WindowQuery(p.ctx, windowAround(d.Universe, a[rng.Intn(len(a))]), func(unijoin.Record) {})
		return err
	})
	p.out["unijoin.window_query_us"] = windowMS * 1000
	return err
}

// traversal covers the routed_stream engine: the paper's PQ join over
// two R-trees on the uniform data.
func (p *probes) traversal(d *dataset) error {
	cat, left, right, err := catalogOf(d, nil)
	if err != nil {
		return err
	}
	var res *unijoin.Results
	if p.out["core.pq_ms"], err = p.timed("core.pq", probeReps, nil, func() error {
		res, err = cat.Workspace().Query(left, right).Algorithm(unijoin.AlgPQ).CountOnly().Run(p.ctx)
		return err
	}); err != nil {
		return err
	}
	if res.Count() != d.Join.Pairs {
		return fmt.Errorf("probe core.pq: %d pairs, reference %d", res.Count(), d.Join.Pairs)
	}
	p.out["core.pq_pages"] = float64(res.IO.Total())
	return nil
}

// ingest covers the write path of routed_ingest on an indexed copy of
// relation a: one append batch, one compaction, and what the first
// query after an append pays beyond a steady-state query.
func (p *probes) ingest(d *dataset, batches [][]geom.Record) error {
	if len(batches) < 3*probeReps {
		return fmt.Errorf("probe ingest: %d append batches, need %d", len(batches), 3*probeReps)
	}
	cat, left, right, err := catalogOf(d, nil)
	if err != nil {
		return err
	}
	next := 0
	appendNext := func() error {
		_, err := left.Append(batches[next])
		next++
		return err
	}
	// probeReps batches stay under the compaction threshold (4096
	// records), so no repetition pays for a compaction.
	if p.out["ingest.append_batch_ms"], err = p.timed("ingest.append_batch", probeReps, nil, appendNext); err != nil {
		return err
	}
	if p.out["ingest.compact_ms"], err = p.timed("ingest.compact", probeReps, appendNext, func() error {
		_, err := left.Compact()
		return err
	}); err != nil {
		return err
	}
	count := func() error {
		_, err := cat.Workspace().Query(left, right).Algorithm(unijoin.AlgParallel).Parallelism(1).CountOnly().Run(p.ctx)
		return err
	}
	ms, err := p.series("ingest.first_query", probeReps,
		step{fn: appendNext},
		step{"ingest.first_query_after_append", count},
		step{"ingest.query_steady", count})
	if err != nil {
		return err
	}
	p.out["ingest.first_query_after_append_ms"] = medianDiff(ms[1], ms[2])
	return nil
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Flush()                      {}

// quietLogger keeps the in-process servers' request lines off stderr.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// serverOwnership covers what stripe mode adds to a shard's join: the
// same count-only request against the middle shard's catalog with and
// without its stripe set (without, the kernel's counting fast path
// runs; with, every pair goes through the emit path and two ID→XLo
// lookups), and the table rebuild the first join after an append pays.
func (p *probes) serverOwnership(d *dataset, batches [][]geom.Record) error {
	iv, err := shard.ParseInterval(d.Stripes[len(d.Stripes)/2])
	if err != nil {
		return err
	}
	cat, left, _, err := catalogOf(d, &iv)
	if err != nil {
		return err
	}
	body, err := json.Marshal(client.JoinRequest{
		Left: d.Left.Name, Right: d.Right.Name, Algorithm: "parallel", Parallelism: 1, CountOnly: true,
	})
	if err != nil {
		return err
	}
	var pairs int64
	joinVia := func(h http.Handler) func() error {
		return func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/join", bytes.NewReader(body)))
			var line client.JoinLine
			if err := json.Unmarshal(rec.Body.Bytes(), &line); err != nil || line.Summary == nil {
				return fmt.Errorf("status %d, body %q", rec.Code, rec.Body.String())
			}
			pairs = line.Summary.Pairs
			return nil
		}
	}
	plain := server.New(server.Config{Catalog: cat, Logger: quietLogger}).Handler()
	striped := server.New(server.Config{Catalog: cat, Logger: quietLogger, Stripe: &iv}).Handler()

	var kernelPairs int64
	ms, err := p.series("server.ownership", probeReps,
		step{"server.join_count", func() error {
			err := joinVia(plain)()
			kernelPairs = pairs
			return err
		}},
		step{"server.join_count_striped", joinVia(striped)})
	if err != nil {
		return err
	}
	p.out["server.join_count_ms"] = median(ms[0])
	p.out["server.join_count_striped_ms"] = median(ms[1])
	p.out["server.ownership_ns_per_pair"] = medianDiff(ms[1], ms[0]) * 1e6 / float64(max(kernelPairs, 1))

	next := 0
	if ms, err = p.series("server.xlo_rebuild", probeReps,
		step{fn: func() error {
			_, err := left.Append(iv.Slice(batches[next]))
			next++
			return err
		}},
		step{"server.join_after_append", joinVia(striped)},
		step{"server.join_steady", joinVia(striped)}); err != nil {
		return err
	}
	p.out["server.xlo_rebuild_ms"] = medianDiff(ms[1], ms[2])
	return nil
}

// pairBatches cuts n synthetic pairs into serving-size batches.
func pairBatches(n int64) [][][2]uint32 {
	var out [][][2]uint32
	for i := int64(0); i < n; i += probeBatch {
		batch := make([][2]uint32, min(probeBatch, n-i))
		for j := range batch {
			batch[j] = [2]uint32{uint32(i) + uint32(j), uint32(n-i) + uint32(j)}
		}
		out = append(out, batch)
	}
	return out
}

// encoders covers the emit side of both transports (httpapi) and the
// frame codec itself (wire), at the routed_stream answer's volume for
// pairs and one relation's worth of records for windows.
func (p *probes) encoders(uni, tig *dataset) error {
	pairs := pairBatches(uni.Join.Pairs)
	nPairs := float64(uni.Join.Pairs)
	recs := tig.Left.Recs
	nRecs := float64(len(recs))
	perItem := func(ms, n float64) float64 { return ms * 1e6 / n }

	framesMS, err := p.timed("httpapi.frames_pairs", probeReps, nil, func() error {
		fw := httpapi.NewFrameWriter(&discardResponse{}, nil)
		defer fw.Close()
		for _, b := range pairs {
			fw.WritePairs(b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["httpapi.frames_ns_per_pair"] = perItem(framesMS, nPairs)
	ndjsonMS, err := p.timed("httpapi.ndjson_pairs", probeReps, nil, func() error {
		lw := httpapi.NewLineWriter(&discardResponse{})
		defer lw.Close()
		for _, b := range pairs {
			lw.WriteLine(client.JoinLine{Pairs: b})
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["httpapi.ndjson_ns_per_pair"] = perItem(ndjsonMS, nPairs)

	framesMS, err = p.timed("httpapi.frames_records", probeReps, nil, func() error {
		fw := httpapi.NewFrameWriter(&discardResponse{}, nil)
		defer fw.Close()
		for i := 0; i < len(recs); i += probeBatch {
			fw.WriteRecords(recs[i:min(i+probeBatch, len(recs))])
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["httpapi.frames_ns_per_record"] = perItem(framesMS, nRecs)
	var out []client.RecordOut
	ndjsonMS, err = p.timed("httpapi.ndjson_records", probeReps, nil, func() error {
		lw := httpapi.NewLineWriter(&discardResponse{})
		defer lw.Close()
		for i := 0; i < len(recs); i += probeBatch {
			out = out[:0]
			for _, r := range recs[i:min(i+probeBatch, len(recs))] {
				out = append(out, client.RecordOut{ID: r.ID, Rect: wireRect(r.Rect)})
			}
			lw.WriteLine(client.WindowLine{Records: out})
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["httpapi.ndjson_ns_per_record"] = perItem(ndjsonMS, nRecs)

	// wire: encode into memory, then decode and scan those bytes.
	var buf bytes.Buffer
	encodeMS, err := p.timed("wire.encode", probeReps, nil, func() error {
		buf.Reset()
		enc := wire.NewEncoder(&buf)
		defer enc.Close()
		for _, b := range pairs {
			if err := enc.WritePairs(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wire.encode_ns_per_pair"] = perItem(encodeMS, nPairs)
	p.out["wire.bytes_per_pair"] = float64(buf.Len()) / nPairs
	var scratch [][2]uint32
	decodeMS, err := p.timed("wire.decode", probeReps, nil, func() error {
		dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
		for {
			f, err := dec.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if scratch, err = f.Pairs(scratch[:0]); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	p.out["wire.decode_ns_per_pair"] = perItem(decodeMS, nPairs)
	scanMS, err := p.timed("wire.scan", probeReps, nil, func() error {
		sc := wire.NewScanner(bytes.NewReader(buf.Bytes()))
		for {
			if _, _, err := sc.Next(); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	p.out["wire.scan_ns_per_frame"] = perItem(scanMS, float64(len(pairs)))
	return err
}

// cannedJoin renders one complete join answer of the given pairs in
// both transports, as a shard would stream it.
func cannedJoin(pairs [][][2]uint32) (frames, ndjson []byte, err error) {
	var n int64
	for _, b := range pairs {
		n += int64(len(b))
	}
	sum := &client.JoinSummary{Left: "a", Right: "b", Algorithm: "PQ", Pairs: n}
	var fb, nb bytes.Buffer
	enc := wire.NewEncoder(&fb)
	defer enc.Close()
	js := json.NewEncoder(&nb)
	for _, b := range pairs {
		if err := errors.Join(enc.WritePairs(b), js.Encode(client.JoinLine{Pairs: b})); err != nil {
			return nil, nil, err
		}
	}
	err = errors.Join(enc.WriteJSON(wire.TypeSummary, sum), enc.WriteEnd(), js.Encode(client.JoinLine{Summary: sum}))
	return fb.Bytes(), nb.Bytes(), err
}

// cannedServer replays fixed join and window answers, so what a probe
// times is the consumer, not an engine.
func cannedServer(frames, ndjson []byte) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/window"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"summary":{"relation":"a","records":0,"indexed":true,"elapsed_ms":0}}`)
		case wire.Negotiates(r):
			w.Header().Set("Content-Type", wire.ContentType)
			w.Write(frames)
		default:
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(ndjson)
		}
	}))
}

// clientAndRouter covers the consuming side of routed_stream — the
// client decoding a whole answer, the router relaying three shards'
// answers — and the floor of a scatter: a window query over shards
// that answer with an empty summary.
func (p *probes) clientAndRouter(uni *dataset) error {
	pairs := pairBatches(uni.Join.Pairs)
	nPairs := float64(uni.Join.Pairs)
	frames, ndjson, err := cannedJoin(pairs)
	if err != nil {
		return err
	}
	whole := cannedServer(frames, ndjson)
	defer whole.Close()

	req := client.JoinRequest{Left: "a", Right: "b"}
	consume := func(binary bool) func() error {
		cl := newClient(whole.URL, binary)
		return func() error {
			var got int64
			sum, err := cl.JoinBatches(p.ctx, req, func(b [][2]uint32) { got += int64(len(b)) })
			if err == nil && (got != sum.Pairs || got != uni.Join.Pairs) {
				err = fmt.Errorf("delivered %d pairs, summary %d, canned %d", got, sum.Pairs, uni.Join.Pairs)
			}
			return err
		}
	}
	ms, err := p.timed("client.frames", probeReps, nil, consume(true))
	if err != nil {
		return err
	}
	p.out["client.frames_ns_per_pair"] = ms * 1e6 / nPairs
	if ms, err = p.timed("client.ndjson", probeReps, nil, consume(false)); err != nil {
		return err
	}
	p.out["client.ndjson_ns_per_pair"] = ms * 1e6 / nPairs

	// Three shards, each replaying a third of the answer.
	var urls []string
	for s := range fleetShards {
		third := pairs[s*len(pairs)/fleetShards : (s+1)*len(pairs)/fleetShards]
		f, n, err := cannedJoin(third)
		if err != nil {
			return err
		}
		srv := cannedServer(f, n)
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		return err
	}
	if ms, err = p.timed("shard.relay", probeReps, nil, func() error {
		sum, err := router.JoinFrames(p.ctx, req, func([]byte) {})
		if err == nil && sum.Pairs != uni.Join.Pairs {
			err = fmt.Errorf("relayed summary says %d pairs, canned %d", sum.Pairs, uni.Join.Pairs)
		}
		return err
	}); err != nil {
		return err
	}
	p.out["shard.relay_ns_per_pair"] = ms * 1e6 / nPairs
	win := client.WindowRequest{Relation: "a", Window: &client.Rect{XHi: 1, YHi: 1}}
	ms, err = p.timed("shard.scatter_floor", 20*probeReps, nil, func() error {
		_, err := router.Window(p.ctx, win, nil)
		return err
	})
	p.out["shard.scatter_floor_us"] = ms * 1000
	return err
}
