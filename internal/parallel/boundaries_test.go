package parallel

import (
	"math"
	"reflect"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/jointest"
)

// TestPartitionerFromSamplesMatchesDirect pins the cache contract:
// boundaries computed from per-input cached sorted samples are
// identical to boundaries computed from the records directly, so a
// catalog can swap one for the other without perturbing a single
// stripe assignment.
func TestPartitionerFromSamplesMatchesDirect(t *testing.T) {
	cases := map[string]func() ([]geom.Record, []geom.Record){
		"uniform": func() ([]geom.Record, []geom.Record) {
			return datagen.Uniform(3, 9000, universe, 30), datagen.Uniform(4, 7000, universe, 30)
		},
		"clustered": func() ([]geom.Record, []geom.Record) {
			return clustered(11, 9000, 5000)
		},
		"tiny": func() ([]geom.Record, []geom.Record) {
			return datagen.Uniform(5, 3, universe, 30), nil
		},
		"empty": func() ([]geom.Record, []geom.Record) { return nil, nil },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			a, b := gen()
			for _, k := range []int{1, 2, 4, 7, 16} {
				direct := NewPartitioner(universe, k, a, b)
				cached := NewPartitionerFromSamples(universe, k,
					SortedCenterSample(a), SortedCenterSample(b))
				if !reflect.DeepEqual(direct.Boundaries(), cached.Boundaries()) {
					t.Fatalf("k=%d: boundaries differ\ndirect: %v\ncached: %v",
						k, direct.Boundaries(), cached.Boundaries())
				}
			}
		})
	}
}

// TestPartitionerFromBoundaries checks the reconstruction path shards
// use and its validation.
func TestPartitionerFromBoundaries(t *testing.T) {
	p, err := PartitionerFromBoundaries(universe, []geom.Coord{250, 500, 750})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Partitions(); got != 4 {
		t.Fatalf("Partitions() = %d, want 4", got)
	}
	if got := p.Of(500); got != 2 {
		t.Fatalf("Of(500) = %d, want 2 (boundaries are half-open)", got)
	}
	if _, err := PartitionerFromBoundaries(universe, []geom.Coord{250, 250}); err == nil {
		t.Fatal("duplicate boundaries accepted")
	}
	if _, err := PartitionerFromBoundaries(universe, []geom.Coord{500, 250}); err == nil {
		t.Fatal("decreasing boundaries accepted")
	}
	nan := geom.Coord(math.NaN())
	if _, err := PartitionerFromBoundaries(universe, []geom.Coord{250, nan}); err == nil {
		t.Fatal("NaN boundary accepted")
	}
	if _, err := PartitionerFromBoundaries(universe, []geom.Coord{geom.Coord(math.Inf(1))}); err == nil {
		t.Fatal("infinite boundary accepted")
	}
}

// TestJoinWithSortedSamplesMatches runs the engine with and without
// pre-sorted samples and demands the identical pair set — the
// boundary reuse path must be invisible to results.
func TestJoinWithSortedSamplesMatches(t *testing.T) {
	a, b := clustered(13, 4000, 3000)
	o := Options{Universe: universe, Workers: 3, Partitions: 7}
	repDirect, direct := joinedPairs(t, a, b, o)

	o2 := o
	o2.SortedSamples = [][]geom.Coord{SortedCenterSample(a), SortedCenterSample(b)}
	repCached, cached := joinedPairs(t, a, b, o2)

	if !reflect.DeepEqual(direct, cached) {
		t.Fatalf("pair sets differ: direct %d pairs, cached %d pairs", len(direct), len(cached))
	}
	if repDirect.Partitions != repCached.Partitions {
		t.Fatalf("partition counts differ: %d vs %d", repDirect.Partitions, repCached.Partitions)
	}

	// A windowed join must ignore the cached samples (they describe
	// the unfiltered relation) and still be exact.
	win := geom.NewRect(100, 100, 600, 600)
	o2.Window = &win
	_, windowed := joinedPairs(t, a, b, o2)
	jointest.CheckJoin(t, "windowed join with cached samples", a, b, jointest.Join(a, b, &win), windowed)
}

// TestMergeSamplesSortedAndBounded pins MergeSamples' two guarantees:
// the result stays sorted, and repeated merging — a long append
// stream — never grows the sample past its decimation bound.
func TestMergeSamplesSortedAndBounded(t *testing.T) {
	sample := SortedCenterSample(datagen.Uniform(41, 5000, universe, 30))
	for round := 0; round < 20; round++ {
		delta := SortedCenterSample(datagen.Uniform(int64(100+round), 3000, universe, 30))
		sample = MergeSamples(sample, delta)
		for i := 1; i < len(sample); i++ {
			if sample[i-1] > sample[i] {
				t.Fatalf("round %d: sample unsorted at %d: %g > %g", round, i, sample[i-1], sample[i])
			}
		}
		if len(sample) > 2*sampleMax {
			t.Fatalf("round %d: sample grew to %d, bound is %d", round, len(sample), 2*sampleMax)
		}
	}
	// A merged sample still drives a partitioner to sane boundaries.
	p := NewPartitionerFromSamples(universe, 8, sample)
	bounds := p.Boundaries()
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			t.Fatalf("boundaries not strictly increasing: %v", bounds)
		}
	}
	if math.IsNaN(float64(bounds[0])) {
		t.Fatalf("NaN boundary: %v", bounds)
	}
}
