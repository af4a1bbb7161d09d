package parallel

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"unijoin/internal/geom"
)

// countersOf strips a Report down to what is deterministic: everything
// but wall-clock times and which worker swept what.
func countersOf(r Report) Report {
	r.Wall, r.PartitionWall, r.SweepWall, r.PerWorker = 0, 0, 0, nil
	return r
}

// TestSortedInputIsObservedNotRequired: sortedness is a property the
// engine sees in its input, not a mode. Fed the same records shuffled
// and pre-sorted by ByLowerY (same stripe boundaries, as when both come
// with one relation's cached sample), Join and Serial must emit the
// identical pair sequence and report identical counters — and must
// leave both inputs exactly as they found them, since the pre-sorted
// ones are shared between concurrent queries.
func TestSortedInputIsObservedNotRequired(t *testing.T) {
	a, b := clustered(41, 6000, 4000) // above distSerialCutoff
	samples := [][]geom.Coord{SortedCenterSample(a), SortedCenterSample(b)}
	sortedA, sortedB := slices.Clone(a), slices.Clone(b)
	slices.SortFunc(sortedA, geom.ByLowerY)
	slices.SortFunc(sortedB, geom.ByLowerY)
	rng := rand.New(rand.NewSource(41))
	shuffledA, shuffledB := slices.Clone(a), slices.Clone(b)
	rng.Shuffle(len(shuffledA), func(i, j int) { shuffledA[i], shuffledA[j] = shuffledA[j], shuffledA[i] })
	rng.Shuffle(len(shuffledB), func(i, j int) { shuffledB[i], shuffledB[j] = shuffledB[j], shuffledB[i] })

	type engine func(context.Context, []geom.Record, []geom.Record, Options) (Report, error)
	run := func(join engine, a, b []geom.Record, o Options) (Report, []geom.Pair) {
		t.Helper()
		beforeA, beforeB := slices.Clone(a), slices.Clone(b)
		var seq []geom.Pair
		o.Emit = func(p geom.Pair) { seq = append(seq, p) }
		rep, err := join(context.Background(), a, b, o)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, beforeA) || !slices.Equal(b, beforeB) {
			t.Fatal("the engine modified its input")
		}
		return countersOf(rep), seq
	}
	for _, workers := range []int{1, 3} {
		o := Options{Universe: universe, Workers: workers, Partitions: 7, SortedSamples: samples}
		wantRep, wantSeq := run(Join, sortedA, sortedB, o)
		if len(wantSeq) == 0 {
			t.Fatal("workload produced no pairs")
		}
		gotRep, gotSeq := run(Join, shuffledA, shuffledB, o)
		if !slices.Equal(gotSeq, wantSeq) {
			t.Fatalf("workers=%d: shuffled input changed the pair sequence (%d vs %d pairs)", workers, len(gotSeq), len(wantSeq))
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("workers=%d: report counters differ:\nshuffled %+v\nsorted   %+v", workers, gotRep, wantRep)
		}
	}
	o := Options{Universe: universe}
	wantRep, wantSeq := run(Serial, sortedA, sortedB, o)
	gotRep, gotSeq := run(Serial, shuffledA, shuffledB, o)
	if !slices.Equal(gotSeq, wantSeq) || !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatal("Serial: shuffled and sorted inputs disagree")
	}
}

// TestSingleFragmentSidesAreNotCopied: with one distribution worker
// every partition side is one fragment, handed to the sweep as is.
func TestSingleFragmentSidesAreNotCopied(t *testing.T) {
	a, b := clustered(5, 3000, 2000)
	part := NewPartitioner(universe, 4, a, b)
	d, err := distribute(context.Background(), part, a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.release()
	for i := 0; i < part.Partitions(); i++ {
		side := gather(d.fragsA, i, d.sizeA[i])
		if len(side) == 0 || &side[0] != &d.fragsA[0][i][0] {
			t.Fatalf("stripe %d: side of %d records is not the worker's own fragment", i, len(side))
		}
	}
}
