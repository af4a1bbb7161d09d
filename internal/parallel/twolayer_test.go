package parallel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/jointest"
	"unijoin/internal/pairbuf"
)

// TestPartitionerDedupClusteredDuplicates is the regression test for
// duplicate quantile boundaries: when most x-centers share one value,
// several quantile positions hold that same value, which used to
// produce degenerate empty stripes and zero-width OwnerRange
// intervals. Deduplication must leave fewer, strictly increasing
// boundaries and a correct join.
func TestPartitionerDedupClusteredDuplicates(t *testing.T) {
	var recs []geom.Record
	// 2000 records whose x-center is exactly 500 …
	for i := 0; i < 2000; i++ {
		y := geom.Coord(i % 97)
		recs = append(recs, geom.Record{Rect: geom.NewRect(500, y, 500, y+2), ID: geom.ID(i)})
	}
	// … plus a thin spread so some distinct quantiles survive.
	for i := 0; i < 120; i++ {
		x := geom.Coord(i * 8)
		recs = append(recs, geom.Record{Rect: geom.NewRect(x, 10, x+4, 14), ID: geom.ID(3000 + i)})
	}
	p := NewPartitioner(universe, 16, recs)
	k := p.Partitions()
	if k < 1 || k > 16 {
		t.Fatalf("partitions = %d, want 1..16", k)
	}
	if k == 16 {
		t.Fatalf("duplicate quantiles must collapse below the requested 16 stripes")
	}
	for i := 0; i < k; i++ {
		lo, hi := p.OwnerRange(i)
		if !(lo < hi) {
			t.Fatalf("stripe %d has degenerate OwnerRange [%g, %g)", i, lo, hi)
		}
		if i > 0 {
			_, prevHi := p.OwnerRange(i - 1)
			if prevHi != lo {
				t.Fatalf("stripes %d and %d do not tile: %g vs %g", i-1, i, prevHi, lo)
			}
		}
	}
	// All-duplicate centers: every boundary collapses to one stripe.
	dup := recs[:2000]
	if got := NewPartitioner(universe, 8, dup).Partitions(); got != 1 {
		t.Fatalf("all-duplicate centers: partitions = %d, want 1", got)
	}
	// The join over the clustered-duplicate data stays correct.
	_, got := joinedPairs(t, recs, recs, Options{Universe: universe, Partitions: 16, Workers: 4})
	jointest.CheckJoin(t, "clustered duplicates", recs, recs, jointest.Join(recs, recs, nil), got)
}

// TestDistributeMatchesSerialReference pins the chunked parallel
// distribution to the serial Partitioner.Distribute reference: for
// any worker count, concatenating each stripe's fragments in worker
// order must reproduce the serial bucket contents exactly — same
// records, same order, same Local tags — because worker w owns the
// w-th contiguous chunk of the input.
func TestDistributeMatchesSerialReference(t *testing.T) {
	a, b := clustered(17, 4000, 2500) // above distSerialCutoff
	part := NewPartitioner(universe, 9, a, b)
	k := part.Partitions()
	wantA := make([][]geom.Record, k)
	wantB := make([][]geom.Record, k)
	wantRepl := part.Distribute(a, wantA) + part.Distribute(b, wantB)
	for _, nw := range []int{1, 2, 3, 8} {
		d, err := distribute(context.Background(), part, a, b, nw)
		if err != nil {
			t.Fatal(err)
		}
		defer d.release()
		if d.input != int64(len(a)+len(b)) {
			t.Fatalf("nw=%d: input = %d", nw, d.input)
		}
		if d.replicated != wantRepl {
			t.Fatalf("nw=%d: replicated = %d, want %d", nw, d.replicated, wantRepl)
		}
		if d.local+d.boundary != d.input {
			t.Fatalf("nw=%d: local %d + boundary %d != input %d", nw, d.local, d.boundary, d.input)
		}
		for i := 0; i < k; i++ {
			gotA := gather(d.fragsA, i, d.sizeA[i])
			gotB := gather(d.fragsB, i, d.sizeB[i])
			if !reflect.DeepEqual(gotA, wantA[i]) {
				t.Fatalf("nw=%d stripe %d: side A diverges from serial distribution", nw, i)
			}
			if !reflect.DeepEqual(gotB, wantB[i]) {
				t.Fatalf("nw=%d stripe %d: side B diverges from serial distribution", nw, i)
			}
		}
	}
}

// TestDistributeWindowed checks the narrowing: a windowed join
// distributes, counts and classifies exactly the window-intersecting
// records of both sides.
func TestDistributeWindowed(t *testing.T) {
	a, b := clustered(23, 5000, 3000)
	w := geom.NewRect(200, 200, 600, 600)
	rep, err := Join(context.Background(), a, b, Options{Universe: universe, Partitions: 6, Workers: 4, Window: &w})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range a {
		if r.Rect.Intersects(w) {
			want++
		}
	}
	for _, r := range b {
		if r.Rect.Intersects(w) {
			want++
		}
	}
	if rep.InputRecords != want {
		t.Fatalf("windowed input = %d, want %d", rep.InputRecords, want)
	}
	if rep.LocalRecords+rep.BoundaryRecords != rep.InputRecords {
		t.Fatalf("local %d + boundary %d != input %d", rep.LocalRecords, rep.BoundaryRecords, rep.InputRecords)
	}
}

// TestWindowedSamplingStaysDense guards boundary estimation under a
// selective window: only records the join will actually sweep may
// vote on boundaries, and a window keeping ~0.5% of a large input
// must still contribute a full sample. The join samples its narrowed
// input; striding before the narrowing would leave a handful of
// survivors, collapse to the equal-width fallback, and put every
// boundary outside the populated region.
func TestWindowedSamplingStaysDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs []geom.Record
	// 100k records spread over the universe, none near the window …
	for i := 0; i < 100_000; i++ {
		x := 200 + geom.Coord(rng.Intn(800))
		y := geom.Coord(rng.Intn(1000))
		recs = append(recs, geom.Record{Rect: geom.NewRect(x, y, x+1, y+1), ID: geom.ID(i)})
	}
	// … plus 500 inside it, clustered in x ∈ [100, 110].
	for i := 0; i < 500; i++ {
		x := 100 + geom.Coord(rng.Intn(10))
		y := 100 + geom.Coord(rng.Intn(10))
		recs = append(recs, geom.Record{Rect: geom.NewRect(x, y, x+1, y+1), ID: geom.ID(200_000 + i)})
	}
	w := geom.NewRect(95, 95, 115, 115)
	narrowed := narrow(recs, &w)
	defer pairbuf.PutRecords(narrowed)
	p := NewPartitioner(universe, 8, narrowed)
	if got := p.Partitions(); got != 8 {
		t.Fatalf("windowed partitions = %d, want 8 (sample starved?)", got)
	}
	for i := 1; i < 8; i++ {
		lo, _ := p.OwnerRange(i)
		if lo < 100 || lo > 112 {
			t.Fatalf("boundary %d at %g lies outside the windowed population [100, 112]", i, lo)
		}
	}
	if n := len(sortedCenterSample(narrowed, sampleMax)); n < 400 {
		t.Fatalf("windowed sample kept %d of ~500 qualifying centers", n)
	}
}

// TestWindowedJoinIsJoinOverNarrowedInputs is the narrowing law: a
// join under a window equals the same join over inputs already narrowed
// to that window — identical report counters, identical pair sequence —
// so nothing after the narrowing reads a record the window excludes.
// Both sides are given the same pinned stripe count. It ranges over
// every shape of the shared generator, at one and four workers, under
// windows strictly inside a stripe of the shapes' cuts, with both edges
// on cuts, of zero width on a cut, covering the universe and outside
// it. The windowed join is also held to the reference: whole, and as
// each interval's share of the cuts' tiling — the share by the
// reference point clipped to the window's left edge, the third and last
// thing the window does in this package.
func TestWindowedJoinIsJoinOverNarrowedInputs(t *testing.T) {
	cuts := []geom.Coord{125, 250, 375, 500, 625, 750, 875}
	windows := map[string]geom.Rect{
		"inside-a-stripe":     geom.NewRect(260, 100, 360, 900),
		"edges-on-cuts":       geom.NewRect(375, 200, 625, 800),
		"zero-width-on-a-cut": geom.NewRect(500, 0, 500, 1000),
		"universe":            universe,
		"outside":             geom.NewRect(1500, 1500, 1600, 1600),
	}
	within := func(recs []geom.Record, w geom.Rect) []geom.Record {
		var out []geom.Record
		for _, r := range recs {
			if r.Rect.Intersects(w) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, sh := range jointest.Shapes {
		in := sh.Gen(1, universe, cuts)
		for name, w := range windows {
			na, nb := within(in.A, w), within(in.B, w)
			want := jointest.Join(in.A, in.B, &w)
			for _, workers := range []int{1, 4} {
				what := fmt.Sprintf("%s window=%s workers=%d", sh.Name, name, workers)
				o := Options{Universe: universe, Workers: workers, Partitions: len(cuts) + 1, Window: &w}
				rep, seq := pairSequence(t, in.A, in.B, o)
				jointest.CheckJoin(t, what, in.A, in.B, want, jointest.BagOf(seq))
				narrowed, fromNarrowed := pairSequence(t, na, nb, o)
				if !reflect.DeepEqual(countersOf(rep), countersOf(narrowed)) {
					t.Fatalf("%s: report counters differ:\nwindowed %+v\nnarrowed %+v", what, countersOf(rep), countersOf(narrowed))
				}
				if !slices.Equal(seq, fromNarrowed) {
					t.Fatalf("%s: the pair sequence differs over pre-narrowed inputs (%d vs %d pairs)", what, len(seq), len(fromNarrowed))
				}
				for i := range len(cuts) + 1 {
					own := geom.Interval{Lo: geom.Coord(math.Inf(-1)), Hi: geom.Coord(math.Inf(1))}
					if i > 0 {
						own.Lo = cuts[i-1]
					}
					if i < len(cuts) {
						own.Hi = cuts[i]
					}
					o.Own = &own
					_, got := joinedPairs(t, in.A, in.B, o)
					jointest.CheckJoin(t, fmt.Sprintf("%s own=%s", what, own), in.A, in.B,
						jointest.Owned(in.A, in.B, &w, own.Lo, own.Hi), got)
				}
			}
		}
	}
}

// TestTwoLayerAccounting checks the classification counters and the
// no-test fast path accounting across engine configurations.
func TestTwoLayerAccounting(t *testing.T) {
	a, b := clustered(19, 3000, 2000)
	ctx := context.Background()

	rep, err := Join(ctx, a, b, Options{Universe: universe, Workers: 4, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalRecords+rep.BoundaryRecords != rep.InputRecords {
		t.Fatalf("local %d + boundary %d != input %d",
			rep.LocalRecords, rep.BoundaryRecords, rep.InputRecords)
	}
	if rep.LocalRecords == 0 || rep.BoundaryRecords == 0 {
		t.Fatalf("both classes must be populated on clustered data: local %d, boundary %d",
			rep.LocalRecords, rep.BoundaryRecords)
	}
	if rep.NoTestPairs <= 0 || rep.NoTestPairs > rep.Pairs {
		t.Fatalf("NoTestPairs = %d of %d pairs", rep.NoTestPairs, rep.Pairs)
	}
	// Replication only comes from boundary records.
	if rep.ReplicatedRecords-rep.InputRecords > rep.BoundaryRecords*int64(rep.Partitions) {
		t.Fatalf("replication exceeds what %d boundary records can produce", rep.BoundaryRecords)
	}
	if f := rep.LocalFraction(); f <= 0 || f >= 1 {
		t.Fatalf("LocalFraction = %f", f)
	}

	// One stripe (Partitions is floored at Workers, so one worker):
	// everything is local, every pair skips the test.
	rep1, err := Join(ctx, a, b, Options{Universe: universe, Workers: 1, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.BoundaryRecords != 0 || rep1.LocalRecords != rep1.InputRecords {
		t.Fatalf("k=1: local %d boundary %d of %d", rep1.LocalRecords, rep1.BoundaryRecords, rep1.InputRecords)
	}
	if rep1.NoTestPairs != rep1.Pairs || rep1.NoTestFraction() != 1 {
		t.Fatalf("k=1: NoTestPairs = %d of %d", rep1.NoTestPairs, rep1.Pairs)
	}
}

// TestEmptyInputReports pins the documented Report contract for empty
// inputs: Replication 0.
func TestEmptyInputReports(t *testing.T) {
	rep, err := Join(context.Background(), nil, nil, Options{Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replication != 0 {
		t.Fatalf("parallel: empty-input Replication = %f, want 0", rep.Replication)
	}
	if rep.InputRecords != 0 || rep.Pairs != 0 || rep.NoTestPairs != 0 {
		t.Fatalf("parallel: empty-input report %+v", rep)
	}
}

// BenchmarkDistribute measures the distribution prefix alone — the
// phase Report.PartitionWall covers — at several worker counts on the
// 100k uniform workload, the serial-prefix baseline the tentpole
// removes (run with -cpu to pin GOMAXPROCS on multicore hosts).
func BenchmarkDistribute(b *testing.B) {
	u := geom.NewRect(0, 0, 100_000, 100_000)
	ra := datagen.Uniform(1, 100_000, u, 40)
	rb := datagen.Uniform(2, 100_000, u, 40)
	for _, nw := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4"}[nw], func(b *testing.B) {
			part := NewPartitioner(u, 16, ra, rb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := distribute(context.Background(), part, ra, rb, nw)
				if err != nil {
					b.Fatal(err)
				}
				d.release()
			}
		})
	}
}
