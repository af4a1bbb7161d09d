package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/parallel"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

var universe = geom.NewRect(0, 0, 1000, 1000)

func fixedUniverse(geom.Rect) geom.Rect { return universe }

func genRecords(rng *rand.Rand, n, idBase int) []geom.Record {
	recs := make([]geom.Record, n)
	for i := range recs {
		x := float32(rng.Float64() * 990)
		y := float32(rng.Float64() * 990)
		recs[i] = geom.Record{
			Rect: geom.NewRect(x, y, x+float32(rng.Float64()*10), y+float32(rng.Float64()*10)),
			ID:   uint32(idBase + i),
		}
	}
	return recs
}

func newLog(t *testing.T, cfg Config, recs []geom.Record) *Log {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = iosim.NewStore(iosim.DefaultPageSize)
	}
	if cfg.Universe == nil {
		cfg.Universe = fixedUniverse
	}
	l, err := New(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func readVersion(t *testing.T, v *Version) []geom.Record {
	t.Helper()
	recs, err := stream.ReadAll(v.File, stream.Records)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestAppendPublishesNewEpochAndPinsOld is the core isolation
// property: a version pinned before an append never observes it, the
// version published by the append observes everything.
func TestAppendPublishesNewEpochAndPinsOld(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := genRecords(rng, 500, 0)
	l := newLog(t, Config{DisableAutoCompact: true}, base)

	pinned := l.Current()
	if pinned.Epoch != 0 || pinned.N != 500 {
		t.Fatalf("initial version epoch %d n %d", pinned.Epoch, pinned.N)
	}

	delta := genRecords(rng, 120, 500)
	res, err := l.Append(delta)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 120 || res.Epoch != 1 || res.Total != 620 || res.Compacted {
		t.Fatalf("append result %+v", res)
	}

	// The pinned version still reads exactly the base records.
	got := readVersion(t, pinned)
	if len(got) != 500 {
		t.Fatalf("pinned version reads %d records, want 500", len(got))
	}
	for i, r := range got {
		if r != base[i] {
			t.Fatalf("pinned record %d changed: %v vs %v", i, r, base[i])
		}
	}
	// The new version reads base + delta in order.
	cur := l.Current()
	all := readVersion(t, cur)
	if len(all) != 620 {
		t.Fatalf("current version reads %d records, want 620", len(all))
	}
	for i, r := range delta {
		if all[500+i] != r {
			t.Fatalf("appended record %d: %v vs %v", i, all[500+i], r)
		}
	}
	if cur.Delta() != 120 {
		t.Fatalf("delta %d, want 120", cur.Delta())
	}
}

// windowIDs answers win from an indexed version in its two input forms
// — the packed tree on store plus the slab of the delta run — and
// returns the sorted IDs.
func windowIDs(t *testing.T, store *iosim.Store, v *Version, win geom.Rect) []uint32 {
	t.Helper()
	var ids []uint32
	if err := v.Tree.Query(rtree.StoreReader{Store: store}, win, func(r geom.Record) {
		ids = append(ids, r.ID)
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range v.DeltaRun().Slab(win) {
		if r.Rect.Intersects(win) {
			ids = append(ids, r.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestIndexedAppendLeavesTreeUntouched: an append publishes the very
// tree its predecessor had and puts the batch in the delta run; the
// pinned version keeps its own run and count; tree ∪ run answers
// windows exactly as a from-scratch build over the same log.
func TestIndexedAppendLeavesTreeUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	store := iosim.NewStore(iosim.DefaultPageSize)
	base := genRecords(rng, 2000, 0)
	l := newLog(t, Config{Store: store, DisableAutoCompact: true}, base)
	opts := rtree.BuildOptions{Fanout: 16, FillFactor: 0.75, AreaSlack: 0.20, SortMemory: 1 << 20}
	if err := l.BuildIndex(opts); err != nil {
		t.Fatal(err)
	}
	packed := l.Current()
	if packed.Tree == nil || packed.Epoch != 1 || len(packed.DeltaRun().Recs) != 0 {
		t.Fatalf("indexed version: tree=%v epoch=%d delta=%d", packed.Tree, packed.Epoch, len(packed.DeltaRun().Recs))
	}
	if _, err := l.Append(genRecords(rng, 300, 2000)); err != nil {
		t.Fatal(err)
	}
	pinned := l.Current()
	pinnedRun := pinned.DeltaRun()
	for batch := 1; batch < 3; batch++ {
		if _, err := l.Append(genRecords(rng, 300, 2000+300*batch)); err != nil {
			t.Fatal(err)
		}
	}
	cur := l.Current()
	if cur.Tree != packed.Tree || pinned.Tree != packed.Tree {
		t.Fatal("an append published a different tree")
	}
	if err := cur.Tree.Validate(rtree.StoreReader{Store: store}); err != nil {
		t.Fatal(err)
	}
	if got := cur.Tree.NumRecords(); got != 2000 || cur.BaseN != 2000 {
		t.Fatalf("tree covers %d records, BaseN %d, want 2000", got, cur.BaseN)
	}
	if pinned.N != 2300 || len(pinnedRun.Recs) != 300 || !slices.Equal(pinned.DeltaRun().Recs, pinnedRun.Recs) {
		t.Fatalf("pinned version moved: n %d, run %d", pinned.N, len(pinned.DeltaRun().Recs))
	}
	run := cur.DeltaRun()
	if cur.N != 2900 || len(run.Recs) != 900 || !slices.IsSortedFunc(run.Recs, geom.ByLowerY) {
		t.Fatalf("current version: n %d, run %d records (sorted %v)", cur.N, len(run.Recs), slices.IsSortedFunc(run.Recs, geom.ByLowerY))
	}
	want := readVersion(t, cur)[2000:]
	slices.SortFunc(want, geom.ByLowerY)
	if !slices.Equal(run.Recs, want) {
		t.Fatal("the delta run is not the sorted tail of the log")
	}

	rebuilt, err := rtree.Build(store, cur.File, universe, opts)
	if err != nil {
		t.Fatal(err)
	}
	whole := &Version{Tree: rebuilt}
	for probe := 0; probe < 30; probe++ {
		x := float32(rng.Float64() * 900)
		y := float32(rng.Float64() * 900)
		win := geom.NewRect(x, y, x+100, y+100)
		if a, b := windowIDs(t, store, cur, win), windowIDs(t, store, whole, win); !slices.Equal(a, b) {
			t.Fatalf("window %v: tree ∪ run finds %d records, rebuild %d", win, len(a), len(b))
		}
	}
}

// logPages is how many store pages a log of n records occupies: its
// bytes rounded up to pages, and those to the whole extents an
// iosim.File grows by.
func logPages(store *iosim.Store, n int64) int {
	ps := int64(store.PageSize())
	pages := (n*geom.RecordSize + ps - 1) / ps
	return int((pages + iosim.ExtentPages - 1) / iosim.ExtentPages * iosim.ExtentPages)
}

// TestSortByLowerYMatchesByLowerY: the radix sort behind every
// prepared run agrees with a comparison sort by geom.ByLowerY, across
// signs, signed zeros, extremes and IDs that differ in any byte.
func TestSortByLowerYMatchesByLowerY(t *testing.T) {
	ys := []float64{-1e30, -2.5, -1, math.Copysign(0, -1), 0, 1e-30, 1, 2.5, 1e30}
	rng := rand.New(rand.NewSource(1))
	recs := make([]geom.Record, 2000)
	for i := range recs {
		y := geom.Coord(ys[rng.Intn(len(ys))])
		recs[i] = geom.Record{Rect: geom.Rect{XHi: 1, YLo: y, YHi: y}, ID: geom.ID(rng.Intn(40)) << (8 * (i % 4))}
	}
	want := slices.Clone(recs)
	slices.SortFunc(want, geom.ByLowerY)
	if sortByLowerY(recs); !slices.Equal(recs, want) {
		t.Fatal("sortByLowerY disagrees with geom.ByLowerY")
	}
}

// livePages is what files and trees occupy in the store: allocated
// pages less the released extents of finished sorts.
func livePages(store *iosim.Store) int { return store.NumPages() - store.FreePages() }

// TestAppendAllocatesOnlyLogPages is the leak test, by page count: an
// append to an indexed relation grows the store's live pages by the
// log's own and nothing else, however many appends there are, and a
// compaction adds exactly one packed tree.
func TestAppendAllocatesOnlyLogPages(t *testing.T) {
	const batches, batchSize = 200, 256
	rng := rand.New(rand.NewSource(11))
	base := genRecords(rng, 5000, 0)
	work := make([][]geom.Record, batches)
	for i := range work {
		work[i] = genRecords(rng, batchSize, 5000+i*batchSize)
	}
	t.Run("delta held open", func(t *testing.T) {
		store := iosim.NewStore(iosim.DefaultPageSize)
		l := newLog(t, Config{Store: store, DisableAutoCompact: true}, base)
		if err := l.BuildIndex(rtree.DefaultBuildOptions()); err != nil {
			t.Fatal(err)
		}
		before, n0 := livePages(store), l.Current().N
		for _, b := range work {
			if _, err := l.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		grown := livePages(store) - before
		if want := logPages(store, l.Current().N) - logPages(store, n0); grown != want {
			t.Fatalf("%d appends grew the store by %d pages, the log alone accounts for %d", batches, grown, want)
		}
	})

	t.Run("auto compaction", func(t *testing.T) {
		store := iosim.NewStore(iosim.DefaultPageSize)
		l := newLog(t, Config{Store: store}, base)
		if err := l.BuildIndex(rtree.DefaultBuildOptions()); err != nil {
			t.Fatal(err)
		}
		before, n0 := livePages(store), l.Current().N
		for _, b := range work {
			res, err := l.Append(b)
			if err != nil {
				t.Fatal(err)
			}
			grown := livePages(store) - before
			want := logPages(store, res.Total) - logPages(store, n0)
			if res.Compacted {
				want += l.Current().Tree.NumNodes()
			}
			if grown != want {
				t.Fatalf("append to %d records (compacted %v) grew the store by %d pages, want %d",
					res.Total, res.Compacted, grown, want)
			}
			before, n0 = livePages(store), res.Total
		}
		if l.Compactions() < 2 {
			t.Fatalf("%d compactions in the walk, want several", l.Compactions())
		}
	})
}

// TestAutoCompactionTriggersAtThreshold checks the trigger math, the
// delta reset, and that compaction changes nothing a query can see.
func TestAutoCompactionTriggersAtThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := iosim.NewStore(iosim.DefaultPageSize)
	base := genRecords(rng, 400, 0)
	l := newLog(t, Config{Store: store, CompactMin: 100, CompactFrac: 0.25}, base)
	opts := rtree.BuildOptions{Fanout: 16, FillFactor: 0.75, AreaSlack: 0.20, SortMemory: 1 << 20}
	if err := l.BuildIndex(opts); err != nil {
		t.Fatal(err)
	}

	// 99 records: below CompactMin, no compaction.
	res, err := l.Append(genRecords(rng, 99, 400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted || l.Compactions() != 0 {
		t.Fatalf("compacted below threshold: %+v", res)
	}
	// One more crosses it (delta 100 >= max(100, 0.25*400)).
	res, err = l.Append(genRecords(rng, 1, 499))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || l.Compactions() != 1 {
		t.Fatalf("no compaction at threshold: %+v, compactions %d", res, l.Compactions())
	}
	cur := l.Current()
	if cur.Delta() != 0 || cur.BaseN != 500 || cur.N != 500 {
		t.Fatalf("post-compaction accounting: base %d delta %d n %d", cur.BaseN, cur.Delta(), cur.N)
	}
	if got := cur.Tree.NumRecords(); got != 500 {
		t.Fatalf("compacted tree has %d records", got)
	}
	if err := cur.Tree.Validate(rtree.StoreReader{Store: store}); err != nil {
		t.Fatal(err)
	}
	if got := readVersion(t, cur); len(got) != 500 {
		t.Fatalf("compacted version reads %d records", len(got))
	}
}

// TestManualCompactUnindexed: an unindexed relation's compaction is
// pure accounting.
func TestManualCompactUnindexed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := newLog(t, Config{DisableAutoCompact: true}, genRecords(rng, 50, 0))
	if _, err := l.Append(genRecords(rng, 30, 50)); err != nil {
		t.Fatal(err)
	}
	did, err := l.Compact()
	if err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	cur := l.Current()
	if cur.Delta() != 0 || cur.N != 80 || cur.Tree != nil {
		t.Fatalf("post-compaction: %+v", cur)
	}
	// Nothing to fold: reports false without bumping the counter.
	did, err = l.Compact()
	if err != nil || did {
		t.Fatalf("empty compact: did=%v err=%v", did, err)
	}
	if l.Compactions() != 1 {
		t.Fatalf("compactions %d, want 1", l.Compactions())
	}
}

// TestSampleMergedOnAppendAndDroppedOnCompaction pins the sample
// maintenance contract of the stripe planner.
func TestSampleMergedOnAppendAndDroppedOnCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := genRecords(rng, 1000, 0)
	l := newLog(t, Config{DisableAutoCompact: true}, base)

	// Warm the sample on the current version.
	v0 := l.Current()
	s0, err := v0.Sample(func() ([]geom.Coord, error) {
		return parallel.SortedCenterSample(base), nil
	})
	if err != nil || len(s0) == 0 {
		t.Fatalf("warm sample: %v len %d", err, len(s0))
	}

	// An append must carry the sample forward, merged, without the
	// compute callback firing.
	delta := genRecords(rng, 200, 1000)
	if _, err := l.Append(delta); err != nil {
		t.Fatal(err)
	}
	v1 := l.Current()
	s1, err := v1.Sample(func() ([]geom.Coord, error) {
		t.Fatal("append should have carried the warm sample forward")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) <= len(s0) {
		t.Fatalf("merged sample has %d centers, base had %d", len(s1), len(s0))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i-1] > s1[i] {
			t.Fatalf("merged sample unsorted at %d", i)
		}
	}

	// A compaction must drop it: the next version recomputes.
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	recomputed := false
	_, err = l.Current().Sample(func() ([]geom.Coord, error) {
		recomputed = true
		return nil, nil
	})
	if err != nil || !recomputed {
		t.Fatalf("compaction kept a stale sample (recomputed=%v err=%v)", recomputed, err)
	}
}

// TestEmptyAppendIsANoOp: no epoch bump, no error.
func TestEmptyAppendIsANoOp(t *testing.T) {
	l := newLog(t, Config{}, nil)
	res, err := l.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 0 || res.Appended != 0 || l.Epoch() != 0 {
		t.Fatalf("empty append moved the log: %+v epoch %d", res, l.Epoch())
	}
}

// TestAppendRejectsInvalidRectAtomically: one bad record rejects the
// whole batch and nothing is published.
func TestAppendRejectsInvalidRectAtomically(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := newLog(t, Config{}, genRecords(rng, 10, 0))
	batch := genRecords(rng, 5, 10)
	batch[3].Rect = geom.Rect{XLo: 9, XHi: 1, YLo: 0, YHi: 1}
	if _, err := l.Append(batch); err == nil {
		t.Fatal("invalid rectangle accepted")
	}
	cur := l.Current()
	if cur.Epoch != 0 || cur.N != 10 {
		t.Fatalf("failed append published: epoch %d n %d", cur.Epoch, cur.N)
	}
	// The log still works.
	if _, err := l.Append(genRecords(rng, 5, 10)); err != nil {
		t.Fatal(err)
	}
	if l.Current().N != 15 {
		t.Fatalf("n %d after recovery append", l.Current().N)
	}
}

// TestConcurrentAppendersAndReaders is the package's race test:
// several goroutines append batches while others continuously pin
// versions and verify their invariants (record count matches the
// pinned N exactly, tree plus delta run accounting matches). Run under
// -race.
func TestConcurrentAppendersAndReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := iosim.NewStore(iosim.DefaultPageSize)
	base := genRecords(rng, 1000, 0)
	l := newLog(t, Config{Store: store, CompactMin: 600, CompactFrac: 0.1}, base)
	opts := rtree.BuildOptions{Fanout: 32, FillFactor: 0.75, AreaSlack: 0.20, SortMemory: 1 << 20}
	if err := l.BuildIndex(opts); err != nil {
		t.Fatal(err)
	}

	const appenders = 4
	const batches = 10
	const batchSize = 50

	// Pre-generate batches so appenders do no shared rng work.
	work := make([][]geom.Record, appenders*batches)
	for i := range work {
		work[i] = genRecords(rng, batchSize, 1000+i*batchSize)
	}

	var wg sync.WaitGroup
	errs := make(chan error, appenders+4)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := l.Append(work[a*batches+b]); err != nil {
					errs <- fmt.Errorf("appender %d: %w", a, err)
					return
				}
			}
		}(a)
	}
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pr := rtree.StoreReader{Store: store}
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := l.Current()
				recs, err := stream.ReadAll(v.File, stream.Records)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if int64(len(recs)) != v.N {
					errs <- fmt.Errorf("reader %d: version n=%d but file holds %d", r, v.N, len(recs))
					return
				}
				if v.Tree != nil && v.Tree.NumRecords() != v.BaseN {
					errs <- fmt.Errorf("reader %d: tree has %d records, version base %d", r, v.Tree.NumRecords(), v.BaseN)
					return
				}
				n := len(v.DeltaRun().Slab(universe))
				if err := v.Tree.Query(pr, universe, func(geom.Record) { n++ }); err != nil {
					errs <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				if int64(n) != v.N {
					errs <- fmt.Errorf("reader %d: query found %d records in a version of %d", r, n, v.N)
					return
				}
			}
		}(r)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Appenders finish first; then stop the readers.
	for {
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-done:
			goto finished
		default:
			if l.Current().N == int64(1000+appenders*batches*batchSize) {
				close(stop)
				<-done
				goto finished
			}
		}
	}
finished:
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	cur := l.Current()
	want := int64(1000 + appenders*batches*batchSize)
	if cur.N != want {
		t.Fatalf("final n %d, want %d", cur.N, want)
	}
	if err := cur.Tree.Validate(rtree.StoreReader{Store: store}); err != nil {
		t.Fatal(err)
	}
	if l.Compactions() == 0 {
		t.Fatal("expected at least one auto-compaction during the run")
	}
}
