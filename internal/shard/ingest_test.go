package shard_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/httpapi"
	"unijoin/internal/jointest"
	"unijoin/internal/shard"
)

// wireRecords converts records to the append request's wire form.
func wireRecords(recs []unijoin.Record) []client.RecordIn {
	out := make([]client.RecordIn, len(recs))
	for i, r := range recs {
		out[i] = client.RecordIn{ID: r.ID, Rect: httpapi.FromRect(r.Rect)}
	}
	return out
}

// wireNDJSON renders records as the bulk append format, one JSON
// object per line.
func wireNDJSON(recs []unijoin.Record) string {
	var b strings.Builder
	for _, r := range wireRecords(recs) {
		fmt.Fprintf(&b, "{\"id\":%d,\"rect\":{\"xlo\":%g,\"ylo\":%g,\"xhi\":%g,\"yhi\":%g}}\n",
			r.ID, r.Rect.XLo, r.Rect.YLo, r.Rect.XHi, r.Rect.YHi)
	}
	return b.String()
}

// uniformBatch is an append batch of n uniform records with IDs from
// idBase. The boundary-sitting batches — the adversarial cases of the
// write fan-out's Loads rule — are onCuts'.
func uniformBatch(seed int64, n, idBase int) []unijoin.Record {
	recs := datagen.Uniform(seed, n, universe, 25)
	for i := range recs {
		recs[i].ID = uint32(idBase + i)
	}
	return recs
}

// TestRouterAppendEqualsSingleProcess is the live-ingestion sharding
// property: appending through the router — which fans
// each record to every shard whose stripe it overlaps — leaves the
// fleet answering joins and window queries exactly like the reference
// over the grown relations, for every algorithm and shard count, with
// boundary-sitting appends included, and its stats counting the
// ingest.
func TestRouterAppendEqualsSingleProcess(t *testing.T) {
	baseA := datagen.Uniform(61, 1200, universe, 25)
	baseB := datagen.Uniform(62, 900, universe, 25)
	rels := map[string][]unijoin.Record{"a": baseA, "b": baseB}
	names := []string{"a", "b"}
	wantBase := jointest.Join(baseA, baseB, nil)

	for _, k := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			cl, _, _ := startFleet(t, planFor(t, k, true, nil, nil), names, rels, true)
			ctx := context.Background()

			// Queries before the append see exactly the base state.
			sum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b"})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Pairs != wantBase.Len() {
				t.Fatalf("pre-append count %d, want %d", sum.Pairs, wantBase.Len())
			}

			// Bulk NDJSON append to "a" through the router.
			deltaA, _ := onCuts(int64(63+k), len(baseA))
			asum, err := cl.AppendNDJSON(ctx, "a", strings.NewReader(wireNDJSON(deltaA)))
			if err != nil {
				t.Fatal(err)
			}
			if asum.Appended != int64(len(deltaA)) || asum.Shards != k {
				t.Fatalf("append summary %+v, want appended=%d shards=%d", asum, len(deltaA), k)
			}
			grownA := append(append([]unijoin.Record(nil), baseA...), deltaA...)
			wantAfter := jointest.Join(grownA, baseB, nil)
			for _, alg := range allAlgorithms {
				jointest.CheckJoin(t, fmt.Sprintf("k=%d %s after the append", k, alg), grownA, baseB, wantAfter,
					joinPairs(t, cl, client.JoinRequest{Left: "a", Right: "b", Algorithm: alg}))
			}

			// The appended records answer window queries too, without
			// boundary-replica duplicates.
			win := unijoin.NewRect(100, 100, 600, 600)
			jointest.Check(t, fmt.Sprintf("k=%d window query after the append", k), wantWindow(grownA, win),
				windowRecords(t, cl, client.Rect{XLo: 100, YLo: 100, XHi: 600, YHi: 600}), nil)

			// Grow the other side through the JSON-array path and
			// re-check one algorithm end to end.
			deltaB := uniformBatch(int64(73+k), 150, len(baseB))
			if _, err := cl.AppendRecords(ctx, "b", wireRecords(deltaB)); err != nil {
				t.Fatal(err)
			}
			grownB := append(append([]unijoin.Record(nil), baseB...), deltaB...)
			wantFinal := jointest.Join(grownA, grownB, nil).Len()
			fsum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b", Algorithm: "ST"})
			if err != nil {
				t.Fatal(err)
			}
			if fsum.Pairs != wantFinal {
				t.Fatalf("k=%d final count %d, want %d", k, fsum.Pairs, wantFinal)
			}

			// The router's stats aggregate the fleet's ingest counters.
			stats, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.RecordsIngested == 0 || stats.Appends < int64(2*k) {
				t.Fatalf("router stats %+v missing ingest counters", stats)
			}
		})
	}
}

// TestRouterConcurrentAppendsAndQueries is the routed half of the
// concurrency satellite. Serialized appends through the router are
// checked for exact prefix visibility (every routed query between
// appends returns precisely some append-prefix's pair set); then a
// writer streams batches in while join and window queries stream out
// concurrently, and every result must be sandwiched between the
// reference sets of the last batch completed before the query and the
// final state — each shard pins its own epoch, so the merged set is a
// union of per-shard consistent prefixes, never a torn read within a
// shard, never a duplicate, never a pair outside the final state.
func TestRouterConcurrentAppendsAndQueries(t *testing.T) {
	baseA := datagen.Uniform(81, 700, universe, 30)
	baseB := datagen.Uniform(82, 500, universe, 30)
	const batches = 4
	const batchSize = 90
	plan, err := shard.PlanFromBoundaries(universe, []unijoin.Coord{500})
	if err != nil {
		t.Fatal(err)
	}
	cl, _, _ := startFleet(t, plan, []string{"a", "b"},
		map[string][]unijoin.Record{"a": baseA, "b": baseB}, true)
	ctx := context.Background()

	deltas := make([][]unijoin.Record, batches)
	refs := make([]jointest.Bag[unijoin.Pair], batches+1)
	prefix := append([]unijoin.Record(nil), baseA...)
	for k := 0; k <= batches; k++ {
		refs[k] = jointest.Join(prefix, baseB, nil)
		if k < batches {
			if deltas[k] = uniformBatch(int64(90+k), batchSize, len(prefix)); k%2 == 1 {
				deltas[k], _ = onCuts(int64(90+k), len(prefix))
			}
			prefix = append(prefix, deltas[k]...)
		}
	}
	for k := 0; k < batches; k++ {
		if len(refs[k+1]) <= len(refs[k]) {
			t.Fatalf("reference counts not strictly increasing at %d; pick new seeds", k)
		}
	}

	// Serialized: each append-then-query observes the exact prefix.
	for k := 0; k < batches; k++ {
		if _, err := cl.AppendRecords(ctx, "a", wireRecords(deltas[k])); err != nil {
			t.Fatal(err)
		}
		jointest.Check(t, fmt.Sprintf("after batch %d", k), refs[k+1],
			joinPairs(t, cl, client.JoinRequest{Left: "a", Right: "b"}), nil)
	}

	// Concurrent: rebuild a fresh fleet and race the writer against
	// readers.
	cl2, _, _ := startFleet(t, plan, []string{"a", "b"},
		map[string][]unijoin.Record{"a": baseA, "b": baseB}, true)
	var completed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < batches; k++ {
			if _, err := cl2.AppendNDJSON(ctx, "a", strings.NewReader(wireNDJSON(deltas[k]))); err != nil {
				errs <- err
				return
			}
			completed.Store(int64(k + 1))
		}
	}()
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func(alg string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := completed.Load()
				got := jointest.Bag[unijoin.Pair]{}
				if _, err := cl2.Join(ctx, client.JoinRequest{Left: "a", Right: "b", Algorithm: alg},
					func(l, r uint32) { got.Add(unijoin.Pair{Left: l, Right: r}) }); err != nil {
					errs <- err
					return
				}
				// Sandwich: everything visible before the query stays
				// visible, and nothing beyond the final state appears —
				// nor anything twice.
				if missing, _ := jointest.Diff(refs[before], got); len(missing) > 0 {
					errs <- fmt.Errorf("%s: pairs %v from completed batch %d missing", alg, missing, before)
					return
				}
				if _, surplus := jointest.Diff(refs[batches], got); len(surplus) > 0 {
					errs <- fmt.Errorf("%s: pairs %v beyond the final state", alg, surplus)
					return
				}
			}
		}([]string{"PQ", "ST"}[reader])
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Settled: the routed fleet converged on the full prefix.
	fsum, err := cl2.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if fsum.Pairs != refs[batches].Len() {
		t.Fatalf("final routed count %d, want %d", fsum.Pairs, refs[batches].Len())
	}
}

// TestOverflowingCoordinateIsRefusedEverywhere: a coordinate that is a
// fine float64 in the request body and +Inf as the float32 a record
// stores must be refused where it enters — by a server asked directly
// and by a router alike, as a bad request naming the record, with
// nothing appended, the finite records of the same batch included.
func TestOverflowingCoordinateIsRefusedEverywhere(t *testing.T) {
	ctx := context.Background()
	rels := map[string][]unijoin.Record{"a": datagen.Uniform(1, 300, universe, 40), "b": datagen.Uniform(2, 200, universe, 40)}
	names := []string{"a", "b"}
	want := jointest.Join(rels["a"], rels["b"], nil)
	xlo, ylo, xhi, yhi, id := jointest.OverflowRecord()
	bad := client.RecordIn{ID: id, Rect: client.Rect{XLo: xlo, YLo: ylo, XHi: xhi, YHi: yhi}}
	fine := client.RecordIn{ID: id + 1, Rect: client.Rect{XLo: 10, YLo: 10, XHi: 990, YHi: 990}}
	routed, _, _ := startFleet(t, planFor(t, 4, true, nil, nil), names, rels, true)
	var refusals []string
	for path, cl := range map[string]*client.Client{
		"direct": client.New(startShard(t, shard.Everything(), names, rels, true), nil), "routed": routed,
	} {
		held, err := cl.Relations(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.AppendRecords(ctx, "a", []client.RecordIn{fine, bad})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("%s: appending a record at x = 1e39: %v, want a bad request", path, err)
		}
		if !strings.Contains(apiErr.Message, fmt.Sprint(id)) {
			t.Errorf("%s: the refusal %q does not name record %d", path, apiErr.Message, id)
		}
		refusals = append(refusals, fmt.Sprint(apiErr.Status, " ", apiErr.Code))
		jointest.CheckJoin(t, path+": the join after the refused append", rels["a"], rels["b"], want,
			joinPairs(t, cl, client.JoinRequest{Left: "a", Right: "b"}))
		holds, err := cl.Relations(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range held {
			if holds[i].Records != held[i].Records {
				t.Errorf("%s: relation %s held %d records before the refused append, holds %d after",
					path, held[i].Name, held[i].Records, holds[i].Records)
			}
		}
	}
	if refusals[0] != refusals[1] {
		t.Errorf("a server refuses with %s, a router with %s", refusals[0], refusals[1])
	}
}
