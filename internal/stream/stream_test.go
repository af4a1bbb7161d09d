package stream

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
)

func newStore() *iosim.Store { return iosim.NewStore(iosim.DefaultPageSize) }

func randomRecords(rng *rand.Rand, n int) []geom.Record {
	recs := make([]geom.Record, n)
	for i := range recs {
		x := float32(rng.Intn(10000))
		y := float32(rng.Intn(10000))
		recs[i] = geom.Record{
			Rect: geom.NewRect(x, y, x+float32(rng.Intn(50)), y+float32(rng.Intn(50))),
			ID:   uint32(i),
		}
	}
	return recs
}

func TestWriteReadRoundTrip(t *testing.T) {
	store := newStore()
	rng := rand.New(rand.NewSource(1))
	recs := randomRecords(rng, 2500) // several pages, record size 20 does not divide 8192
	f, err := WriteAll(store, Records, recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(recs)*geom.RecordSize) {
		t.Fatalf("file size = %d", f.Size())
	}
	got, err := ReadAll(f, Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d of %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %v != %v", i, got[i], recs[i])
		}
	}
}

func TestEmptyStream(t *testing.T) {
	store := newStore()
	f, err := WriteAll(store, Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(f, Records)
	if r.Count() != 0 {
		t.Fatal("empty stream count")
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next on empty: ok=%v err=%v", ok, err)
	}
}

func TestReaderCount(t *testing.T) {
	store := newStore()
	recs := randomRecords(rand.New(rand.NewSource(2)), 777)
	f, _ := WriteAll(store, Records, recs)
	r := NewReader(f, Records)
	if r.Count() != 777 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestTornRecordDetected(t *testing.T) {
	store := newStore()
	f := iosim.NewFile(store)
	if err := f.Append(make([]byte, geom.RecordSize+7)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(f, Records)
	if _, ok, err := r.Next(); !ok || err != nil {
		t.Fatalf("first record should decode: ok=%v err=%v", ok, err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Fatal("trailing bytes should be reported")
	}
	if err := Validate(f, Records); err == nil {
		t.Fatal("Validate should reject torn stream")
	}
}

func TestWriterIsPageEfficient(t *testing.T) {
	// Writing an n-page stream must cost ~n page writes, not one write
	// per record.
	store := newStore()
	recs := randomRecords(rand.New(rand.NewSource(3)), 5000)
	before := store.Counters()
	if _, err := WriteAll(store, Records, recs); err != nil {
		t.Fatal(err)
	}
	delta := store.Counters().Sub(before)
	bytes := int64(len(recs) * geom.RecordSize)
	pages := (bytes + int64(store.PageSize()) - 1) / int64(store.PageSize())
	if delta.Writes() > pages+1 {
		t.Fatalf("writes = %d for %d pages of data", delta.Writes(), pages)
	}
	if delta.Reads() != 0 {
		t.Fatalf("writing should not read: %v", delta)
	}
}

func TestReaderIsPageEfficientAndSequential(t *testing.T) {
	store := newStore()
	recs := randomRecords(rand.New(rand.NewSource(4)), 5000)
	f, _ := WriteAll(store, Records, recs)
	store.ResetCounters()
	if _, err := ReadAll(f, Records); err != nil {
		t.Fatal(err)
	}
	c := store.Counters()
	pages := int64(f.Pages())
	if c.Reads() > pages+1 {
		t.Fatalf("reads = %d for %d pages", c.Reads(), pages)
	}
	if c.RandReads > pages/int64(iosim.ExtentPages)+2 {
		t.Fatalf("scan should be sequential: %v", c)
	}
}

func sortedByY(recs []geom.Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Rect.YLo < recs[i-1].Rect.YLo {
			return false
		}
	}
	return true
}

func TestSortSmallSingleRun(t *testing.T) {
	store := newStore()
	recs := randomRecords(rand.New(rand.NewSource(5)), 100)
	in, _ := WriteAll(store, Records, recs)
	out, stats, err := Sort(store, in, Records, geom.ByLowerY, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.Passes != 0 {
		t.Fatalf("stats = %+v, want single run", stats)
	}
	got, _ := ReadAll(out, Records)
	if !sortedByY(got) {
		t.Fatal("output not sorted")
	}
	if len(got) != len(recs) {
		t.Fatalf("lost records: %d of %d", len(got), len(recs))
	}
}

func TestSortMultiRunMerge(t *testing.T) {
	store := newStore()
	recs := randomRecords(rand.New(rand.NewSource(6)), 10000)
	in, _ := WriteAll(store, Records, recs)
	mem := 100 * geom.RecordSize // forces 100 runs
	out, stats, err := Sort(store, in, Records, geom.ByLowerY, mem)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 100 {
		t.Fatalf("runs = %d, want 100", stats.Runs)
	}
	if stats.Passes < 1 {
		t.Fatal("expected at least one merge pass")
	}
	got, _ := ReadAll(out, Records)
	if !sortedByY(got) {
		t.Fatal("output not sorted")
	}
	if len(got) != len(recs) {
		t.Fatalf("lost records: %d of %d", len(got), len(recs))
	}
}

func TestSortIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		store := newStore()
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		recs := randomRecords(rng, n)
		in, err := WriteAll(store, Records, recs)
		if err != nil {
			return false
		}
		out, _, err := Sort(store, in, Records, geom.ByLowerY, 64*geom.RecordSize)
		if err != nil {
			return false
		}
		got, err := ReadAll(out, Records)
		if err != nil || len(got) != n || !sortedByY(got) {
			return false
		}
		// Permutation check by ID multiset (IDs are unique here).
		seen := make(map[uint32]geom.Record, n)
		for _, rec := range recs {
			seen[rec.ID] = rec
		}
		for _, rec := range got {
			orig, ok := seen[rec.ID]
			if !ok || orig != rec {
				return false
			}
			delete(seen, rec.ID)
		}
		return len(seen) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSortDeterministic(t *testing.T) {
	// With a total-order comparator (ByLowerY breaks ties by ID) the
	// external sort is fully deterministic, including across the merge.
	store := newStore()
	recs := make([]geom.Record, 500)
	for i := range recs {
		recs[i] = geom.Record{Rect: geom.NewRect(float32(i), 1, float32(i)+1, 2), ID: uint32(499 - i)}
	}
	in, _ := WriteAll(store, Records, recs)
	out1, _, err := Sort(store, in, Records, geom.ByLowerY, 50*geom.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := Sort(store, in, Records, geom.ByLowerY, 50*geom.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ReadAll(out1, Records)
	b, _ := ReadAll(out2, Records)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic sort at %d", i)
		}
		if a[i].ID != uint32(i) {
			t.Fatalf("tie-break order wrong at %d: id %d", i, a[i].ID)
		}
	}
}

func TestSortEmptyInput(t *testing.T) {
	store := newStore()
	in := iosim.NewFile(store)
	out, stats, err := Sort(store, in, Records, geom.ByLowerY, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 || stats.Runs != 0 {
		t.Fatalf("empty sort: size=%d stats=%+v", out.Size(), stats.Runs)
	}
}

func TestSortIOShape(t *testing.T) {
	// With a single merge pass the sort should read the data twice and
	// write it twice (runs + output), the SSSJ cost shape from §3.1.
	store := newStore()
	recs := randomRecords(rand.New(rand.NewSource(7)), 100000)
	in, _ := WriteAll(store, Records, recs)
	dataPages := int64(in.Pages())
	store.ResetCounters()
	_, stats, err := Sort(store, in, Records, geom.ByLowerY, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 1 {
		t.Fatalf("expected exactly one merge pass, got %d (runs=%d)", stats.Passes, stats.Runs)
	}
	c := store.Counters()
	slack := dataPages / 4
	if c.Reads() < 2*dataPages-slack || c.Reads() > 2*dataPages+slack+int64(stats.Runs) {
		t.Fatalf("reads = %d, want about %d", c.Reads(), 2*dataPages)
	}
	if c.Writes() < 2*dataPages-slack || c.Writes() > 2*dataPages+slack+int64(stats.Runs) {
		t.Fatalf("writes = %d, want about %d", c.Writes(), 2*dataPages)
	}
}
