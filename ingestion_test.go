package unijoin

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"unijoin/internal/jointest"
)

// appendDelta returns a batch of records with IDs starting at idBase.
func appendDelta(seed int64, n, idBase int, u Rect) []Record {
	recs := demoRecords(seed, n, u)
	for i := range recs {
		recs[i].ID = uint32(idBase + i)
	}
	return recs
}

// TestAppendEpochIsolationAllAlgorithms is the core live-ingestion
// property, per algorithm: a query that has already started (pinned
// its epoch, streamed its first batch) never observes an append that
// completes while it runs — its pair set is exactly the pre-append
// reference — and a query started after the append observes exactly
// the full set. Each algorithm straddles its own append — PQ and SSSJ
// two, one on the simulated disk and one in their resident form (see
// engines), where the prepared run a pinned version merges must be that
// version's own — so the test also exercises a delta run that keeps
// growing beside its tree.
func TestAppendEpochIsolationAllAlgorithms(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	ra := demoRecords(21, 700, u)
	rb := demoRecords(22, 600, u)
	a, err := ws.AddNamedRelation("A", ra)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.AddNamedRelation("B", rb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	cur := append([]Record(nil), ra...)
	algs := []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM, AlgST, AlgAuto, AlgBFRJ, AlgParallel}
	straddles := 0
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			for _, e := range engines(ws, alg) {
				ws, what := e.ws, fmt.Sprintf("%v (%s)", alg, e.name)
				wantBefore := jointest.Join(cur, rb, nil)
				delta := appendDelta(int64(40+straddles), 150, len(cur), u)
				straddles++

				// Start the straddling query and hold it open at its first
				// result batch; the append completes mid-stream.
				started := make(chan struct{})
				unblock := make(chan struct{})
				var once sync.Once
				var got []Pair
				done := make(chan error, 1)
				go func() {
					_, err := ws.Query(a, b).Algorithm(alg).EmitBatch(func(batch []Pair) {
						once.Do(func() {
							close(started)
							<-unblock
						})
						got = append(got, batch...)
					}).Run(context.Background())
					done <- err
				}()
				<-started
				res, err := a.Append(delta)
				if err != nil {
					t.Fatal(err)
				}
				if res.Appended != len(delta) {
					t.Fatalf("append accepted %d of %d", res.Appended, len(delta))
				}
				close(unblock)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				jointest.CheckJoin(t, what+" query straddling the append", cur, rb, wantBefore, jointest.BagOf(got))

				// A query started after the append observes all of it.
				cur = append(cur, delta...)
				after, err := ws.Query(a, b).Algorithm(alg).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				jointest.CheckJoin(t, "post-append "+what+" query", cur, rb, jointest.Join(cur, rb, nil), jointest.BagOf(after.PairSlice()))
			}
		})
	}
	if a.Pin().DeltaRecords() != int64(straddles*150) {
		t.Fatalf("delta records %d, want %d", a.Pin().DeltaRecords(), straddles*150)
	}

	// Compaction rebuilds the packed layout without changing answers.
	did, err := a.Compact()
	if err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	if a.Pin().DeltaRecords() != 0 {
		t.Fatalf("delta records %d after compaction", a.Pin().DeltaRecords())
	}
	res, err := ws.Query(a, b).Algorithm(AlgST).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Count(), jointest.Join(cur, rb, nil).Len(); got != want {
		t.Fatalf("post-compaction count %d, want %d", got, want)
	}
}

// TestConcurrentAppendsWithStreamingQueries is the satellite race
// test, direct flavor: one writer streams append batches in while
// join and window queries stream out, and every query's result set
// must exactly equal the reference for SOME epoch within the bracket
// observed around its run — no torn reads, no mixed epochs. Reference
// counts are strictly increasing in the batch number, so the matched
// epoch is unique. Run under -race (CI does).
func TestConcurrentAppendsWithStreamingQueries(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	ra := demoRecords(31, 600, u)
	rb := demoRecords(32, 500, u)
	const batches = 5
	const batchSize = 80

	a, err := ws.AddNamedRelation("A", ra)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.AddNamedRelation("B", rb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	epoch0 := a.Pin().Epoch() // appends bump the epoch by one per batch

	// Reference pair sets and window ID sets for each prefix k.
	win := NewRect(200, 200, 700, 700)
	deltas := make([][]Record, batches)
	joinRef := make([]jointest.Bag[Pair], batches+1)
	winRef := make([]map[ID]bool, batches+1)
	prefix := append([]Record(nil), ra...)
	for k := 0; k <= batches; k++ {
		joinRef[k] = jointest.Join(prefix, rb, nil)
		ids := make(map[ID]bool)
		for _, r := range prefix {
			if r.Rect.Intersects(win) {
				ids[r.ID] = true
			}
		}
		winRef[k] = ids
		if k < batches {
			deltas[k] = appendDelta(int64(60+k), batchSize, len(prefix), u)
			prefix = append(prefix, deltas[k]...)
		}
	}
	for k := 0; k < batches; k++ {
		if len(joinRef[k+1]) <= len(joinRef[k]) || len(winRef[k+1]) <= len(winRef[k]) {
			t.Fatalf("reference counts not strictly increasing at batch %d; pick new seeds", k)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	appendsDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(appendsDone)
		for _, d := range deltas {
			if _, err := a.Append(d); err != nil {
				errs <- err
				return
			}
		}
	}()

	// matchEpoch finds the unique k whose reference count matches and
	// checks it lies in the observed bracket and the sets agree.
	checkJoin := func(alg Algorithm, got jointest.Bag[Pair], k1, k2 int64) error {
		for k := k1; k <= k2; k++ {
			if joinRef[k].Len() != got.Len() {
				continue
			}
			if missing, surplus := jointest.Diff(joinRef[k], got); len(missing)+len(surplus) > 0 {
				return fmt.Errorf("%v: against the epoch %d reference, missing %v, surplus %v", alg, k, missing, surplus)
			}
			return nil
		}
		return fmt.Errorf("%v: %d pairs matches no epoch in [%d,%d]", alg, got.Len(), k1, k2)
	}

	for _, alg := range []Algorithm{AlgPQ, AlgSSSJ, AlgST, AlgParallel} {
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			for {
				select {
				case <-appendsDone:
					return
				default:
				}
				k1 := a.Pin().Epoch() - epoch0
				res, err := ws.Query(a, b).Algorithm(alg).Run(context.Background())
				if err != nil {
					errs <- fmt.Errorf("%v: %w", alg, err)
					return
				}
				k2 := a.Pin().Epoch() - epoch0
				if err := checkJoin(alg, jointest.BagOf(res.PairSlice()), k1, k2); err != nil {
					errs <- err
					return
				}
			}
		}(alg)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-appendsDone:
				return
			default:
			}
			k1 := a.Pin().Epoch() - epoch0
			got := make(map[ID]bool)
			n, err := a.WindowQuery(context.Background(), win, func(r Record) { got[r.ID] = true })
			if err != nil {
				errs <- fmt.Errorf("window: %w", err)
				return
			}
			k2 := a.Pin().Epoch() - epoch0
			if int64(len(got)) != n {
				errs <- fmt.Errorf("window: emitted %d but counted %d", len(got), n)
				return
			}
			ok := false
			for k := k1; k <= k2 && !ok; k++ {
				if len(winRef[k]) != len(got) {
					continue
				}
				ok = true
				for id := range got {
					if !winRef[k][id] {
						errs <- fmt.Errorf("window: id %d not in epoch %d reference", id, k)
						return
					}
				}
			}
			if !ok {
				errs <- fmt.Errorf("window: %d records matches no epoch in [%d,%d]", len(got), k1, k2)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the dust settles: the final epoch sees everything exactly.
	res, err := ws.Query(a, b).Algorithm(AlgPQ).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Count(), int64(len(joinRef[batches])); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
}

// TestStripeBoundariesTrackAppends pins the sample-maintenance
// satellite at the public API: a relation loaded left-heavy and then
// appended right-heavy must move its stripe boundaries right — the
// cached sample absorbed the appended centers — and the boundaries
// must stay strictly increasing and usable.
func TestStripeBoundariesTrackAppends(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	left := demoRecords(71, 2000, NewRect(0, 0, 100, 1000))
	a, err := ws.AddNamedRelation("A", left)
	if err != nil {
		t.Fatal(err)
	}
	before, err := a.StripeBoundaries(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0] > 100 {
		t.Fatalf("left-heavy boundary %v should sit inside [0,100]", before)
	}

	right := appendDelta(72, 2000, len(left), NewRect(900, 0, 1000, 1000))
	if _, err := a.Append(right); err != nil {
		t.Fatal(err)
	}
	after, err := a.StripeBoundaries(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0] <= 100 {
		t.Fatalf("boundary %v did not move right after a right-heavy append (was %v)", after, before)
	}

	// The catalog-level planner sees the same maintained sample.
	cat := NewCatalogOn(ws)
	if _, err := cat.Load("planned", demoRecords(73, 500, u), false); err != nil {
		t.Fatal(err)
	}
	bounds, err := cat.StripeBoundaries(4, "planned")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			t.Fatalf("catalog boundaries not strictly increasing: %v", bounds)
		}
	}
}

// BenchmarkIngestThroughput measures sustained append throughput:
// each iteration appends one 1000-record batch, with epoch
// publication, threshold compaction (a packed bulk load of the whole
// log, for the indexed case) and the merge into the delta run all
// inside the measured time. The records/s metric is the
// EXPERIMENTS.md ingest row.
func BenchmarkIngestThroughput(b *testing.B) {
	const batch = 1000
	u := NewRect(0, 0, 1000, 1000)
	for _, indexed := range []bool{false, true} {
		name := "plain"
		if indexed {
			name = "indexed"
		}
		b.Run(name, func(b *testing.B) {
			ws := NewWorkspace()
			ws.SetUniverse(u)
			rel, err := ws.AddRelation(demoRecords(31, 20000, u))
			if err != nil {
				b.Fatal(err)
			}
			if indexed {
				if err := rel.BuildIndex(); err != nil {
					b.Fatal(err)
				}
			}
			proto := demoRecords(32, batch, u)
			delta := make([]Record, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(delta, proto)
				for j := range delta {
					delta[j].ID = uint32(20000 + i*batch + j)
				}
				b.StartTimer()
				if _, err := rel.Append(delta); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
