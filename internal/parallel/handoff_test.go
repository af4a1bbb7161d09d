package parallel

import (
	"context"
	"slices"
	"testing"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/pairbuf"
)

// Join hands a stripe's output to the callback as soon as the stripes
// before it have been handed over, and deals the workers no more than a
// window of stripes past that point. The tests here hold it to the two
// things that buys — the sequence a replay after the pool drained would
// give, from a handful of buffers — and to a callback that blocks.

// stripeThenSweep is the sequence Join owes its callback, put together
// the slow way: distribute everything, sweep the stripes one after the
// other with the engine's own kernel, concatenate.
func stripeThenSweep(a, b []geom.Record, o Options) []geom.Pair {
	part := NewPartitionerFromSamples(o.Universe, o.Partitions, o.SortedSamples...)
	k := part.Partitions()
	sideA, sideB := make([][]geom.Record, k), make([][]geom.Record, k)
	part.Distribute(a, sideA)
	part.Distribute(b, sideB)
	var seq []geom.Pair
	for i := 0; i < k; i++ {
		sortByLowerY(sideA[i])
		sortByLowerY(sideB[i])
		kn := part.kernel(context.Background(), i, true)
		if err := kn.sweep(sideA[i], sideB[i]); err != nil {
			panic(err)
		}
		seq = append(seq, kn.buf...)
	}
	return seq
}

// TestHandOffOrderAndBuffersOnLoan: over 64 stripes, at one worker and
// at four, on inputs as given and pre-sorted, through Emit and
// EmitBatch, the callback receives exactly the stripe-then-sweep
// sequence; and pairbuf.Outstanding read inside the EmitBatch callback
// — less the distribution's record fragments, which stay out for the
// whole join — never exceeds Workers + 2, where a replay after the pool
// drains holds all 64. The first callback also stalls for a while: the
// workers, left to themselves, would sweep every remaining stripe in
// that time, and must instead stop a window ahead.
func TestHandOffOrderAndBuffersOnLoan(t *testing.T) {
	a, b := clustered(77, 3000, 2500) // under sampleMax a side, above distSerialCutoff together
	if len(a)+len(b) < distSerialCutoff {
		t.Fatal("inputs too small: the distribution would run on one worker whatever Workers says")
	}
	samples := [][]geom.Coord{SortedCenterSample(a), SortedCenterSample(b)}
	sortedA, sortedB := slices.Clone(a), slices.Clone(b)
	slices.SortFunc(sortedA, geom.ByLowerY)
	slices.SortFunc(sortedB, geom.ByLowerY)

	for _, workers := range []int{1, 4} {
		o := Options{Universe: universe, Workers: workers, Partitions: 64, SortedSamples: samples}
		want := stripeThenSweep(a, b, o)
		if len(want) < 1000 {
			t.Fatalf("workload yields only %d pairs", len(want))
		}
		for name, in := range map[string][2][]geom.Record{"as given": {a, b}, "sorted": {sortedA, sortedB}} {
			if _, got := pairSequence(t, in[0], in[1], o); !slices.Equal(got, want) {
				t.Fatalf("workers=%d, inputs %s: Emit received %d pairs, not the %d of the stripe-then-sweep sequence or not in its order",
					workers, name, len(got), len(want))
			}

			var got []geom.Pair
			var onLoan int64
			base := pairbuf.Outstanding()
			ob := o
			ob.EmitBatch = func(ps []geom.Pair) {
				if got == nil {
					time.Sleep(20 * time.Millisecond)
				}
				got = append(got, ps...)
				onLoan = max(onLoan, pairbuf.Outstanding()-base)
			}
			rep, err := Join(context.Background(), in[0], in[1], ob)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d, inputs %s: EmitBatch received %d pairs, not the %d of the stripe-then-sweep sequence or not in its order",
					workers, name, len(got), len(want))
			}
			// Two sides × K stripes × one fragment per distribution worker.
			fragments := int64(2 * rep.Partitions * workers)
			if rep.Partitions < 32 || onLoan-fragments > int64(workers+2) {
				t.Fatalf("workers=%d, inputs %s: %d pair buffers on loan inside the callback over %d stripes, want at most %d",
					workers, name, onLoan-fragments, rep.Partitions, workers+2)
			}
			if left := pairbuf.Outstanding() - base; left != 0 {
				t.Fatalf("workers=%d: %d pooled buffers on loan after the join", workers, left)
			}
		}
	}
}
