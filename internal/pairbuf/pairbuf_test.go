package pairbuf

import (
	"testing"

	"unijoin/internal/geom"
)

func TestGetPutRoundTrip(t *testing.T) {
	b := Get()
	if len(b) != 0 || cap(b) < BatchSize {
		t.Fatalf("fresh buffer: len %d cap %d", len(b), cap(b))
	}
	b = append(b, geom.Pair{Left: 1, Right: 2})
	Put(b)
	b2 := Get()
	if len(b2) != 0 {
		t.Fatalf("reused buffer not reset: len %d", len(b2))
	}
}

func TestPutRejectsUndersized(t *testing.T) {
	Put(make([]geom.Pair, 0, 4)) // must not enter the pool
	b := Get()
	if cap(b) < BatchSize {
		t.Fatalf("pool handed out an undersized buffer: cap %d", cap(b))
	}
}

func TestBatcherFlushesAtBatchSizeWithDonatedCapacity(t *testing.T) {
	// A pool-donated buffer can arrive with up to maxPooledCap
	// capacity; Emit must still deliver batches of BatchSize, not
	// wait for the larger buffer to fill.
	var batches []int
	b := &Batcher{
		fn:  func(ps []geom.Pair) { batches = append(batches, len(ps)) },
		buf: make([]geom.Pair, 0, maxPooledCap),
	}
	for i := 0; i < 2*BatchSize+5; i++ {
		b.Emit(geom.Pair{Left: geom.ID(i)})
	}
	b.Flush()
	b.Release()
	want := []int{BatchSize, BatchSize, 5}
	if len(batches) != len(want) {
		t.Fatalf("batch sizes = %v, want %v", batches, want)
	}
	for i, n := range want {
		if batches[i] != n {
			t.Fatalf("batch sizes = %v, want %v", batches, want)
		}
	}
}

func TestGrownBuffersAreKept(t *testing.T) {
	b := make([]geom.Pair, 0, 4*BatchSize)
	Put(b)
	// Whatever Get returns next must satisfy the capacity contract.
	if got := Get(); cap(got) < BatchSize {
		t.Fatalf("cap %d < BatchSize", cap(got))
	}
}

func TestRecordBuffersKeepOnlyUsefulCapacity(t *testing.T) {
	if b := GetRecords(); len(b) != 0 {
		t.Fatalf("borrowed record buffer is not empty: len %d", len(b))
	}
	// sync.Pool may drop anything at any time, so only the refusals are
	// certain: a buffer that never grew and an outsized one must not
	// come back; a recycled one must come back empty.
	PutRecords(nil)
	PutRecords(make([]geom.Record, 5, maxPooledRecords+1))
	PutRecords(append(make([]geom.Record, 0, 100), geom.Record{ID: 7}))
	for i := 0; i < 4; i++ {
		b := GetRecords()
		if len(b) != 0 || cap(b) > maxPooledRecords {
			t.Fatalf("borrowed record buffer: len %d cap %d", len(b), cap(b))
		}
	}
}

// TestRecordBuffersRecycleWithoutAllocating: once warm, borrowing a
// record buffer and handing it back allocates nothing — neither the
// buffer nor the box the pool keeps it in.
func TestRecordBuffersRecycleWithoutAllocating(t *testing.T) {
	PutRecords(make([]geom.Record, 0, 64))
	allocs := testing.AllocsPerRun(100, func() {
		PutRecords(append(GetRecords(), geom.Record{ID: 1}))
	})
	if allocs >= 1 {
		t.Fatalf("a warm GetRecords/PutRecords cycle allocates %.2f times", allocs)
	}
}
