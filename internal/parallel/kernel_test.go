package parallel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/jointest"
	"unijoin/internal/pairbuf"
	"unijoin/internal/tiger"
)

// TestWindowSizesTheStripeCount: the automatic stripe count is sized
// from the records that qualify, not from the relation. A window
// keeping about 0.1% of 100k + 100k records leaves a few hundred, and
// they are worth a handful of partitions — the unwindowed join of the
// same relations takes dozens.
func TestWindowSizesTheStripeCount(t *testing.T) {
	big := geom.NewRect(0, 0, 100_000, 100_000)
	a := datagen.Uniform(1, 100_000, big, 40)
	b := datagen.Uniform(2, 100_000, big, 40)
	full, err := Join(context.Background(), a, b, Options{Universe: big, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := geom.NewRect(50_000, 50_000, 53_000, 53_000)
	rep, err := Join(context.Background(), a, b, Options{Universe: big, Workers: 1, Window: &w})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputRecords == 0 || rep.InputRecords > 400 {
		t.Fatalf("window keeps %d records, expected about 200", rep.InputRecords)
	}
	if want := jointest.Join(a, b, &w).Len(); rep.Pairs != want {
		t.Fatalf("windowed join: %d pairs, reference %d", rep.Pairs, want)
	}
	t.Logf("partitions: %d unwindowed, %d for the %d records in the window", full.Partitions, rep.Partitions, rep.InputRecords)
	if full.Partitions < 50 {
		t.Fatalf("unwindowed join resolved %d partitions, expected at least fifty", full.Partitions)
	}
	if rep.Partitions > 8 {
		t.Fatalf("windowed join resolved %d partitions for %d records", rep.Partitions, rep.InputRecords)
	}
}

// pollCtx is a context that is canceled by being asked: Err succeeds
// failAfter times and fails from then on. Done never fires, so a join
// can only learn of the cancellation by polling.
type pollCtx struct {
	context.Context
	polls     atomic.Int64
	failAfter int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// TestJoinCancelAtEveryPoll fails the context at its k-th poll for
// every k a join makes — before the distribution, inside it, between
// and inside partitions — and then from inside its j-th callback for
// every j, and requires each time that Join return the context's error
// and hand every pooled buffer back.
func TestJoinCancelAtEveryPoll(t *testing.T) {
	a, b := datagen.Tall(1, 6000, universe), datagen.Tall(2, 6000, universe)
	batches := 0
	emit := func([]geom.Pair) { batches++ }
	for _, o := range []Options{
		{Universe: universe, Workers: 1, Partitions: 4},
		{Universe: universe, Workers: 3, Partitions: 9, EmitBatch: emit},
	} {
		ctx := &pollCtx{Context: context.Background(), failAfter: math.MaxInt64}
		loaned := pairbuf.Outstanding()
		batches = 0
		if _, err := Join(ctx, a, b, o); err != nil {
			t.Fatal(err)
		}
		perRun := batches // callbacks of one whole join: 0 without a callback
		if got := pairbuf.Outstanding(); got != loaned {
			t.Fatalf("a completed join leaves %d pooled buffers on loan", got-loaned)
		}
		polls := ctx.polls.Load()
		if polls < 100 {
			t.Fatalf("the join polled its context only %d times", polls)
		}
		// Every early poll, then a spread over the rest.
		for k := int64(0); k < polls; k += 1 + k/16 {
			ctx := &pollCtx{Context: context.Background(), failAfter: k}
			if _, err := Join(ctx, a, b, o); !errors.Is(err, context.Canceled) {
				t.Fatalf("context failing at poll %d of %d: Join returned %v", k+1, polls, err)
			}
			if got := pairbuf.Outstanding(); got != loaned {
				t.Fatalf("context failing at poll %d of %d: %d pooled buffers still on loan", k+1, polls, got-loaned)
			}
		}
		// The consumer cancels: the context fails from the j-th callback
		// on, whatever the workers are in the middle of by then.
		for j := 1; j <= perRun; j++ {
			ctx := &pollCtx{Context: context.Background(), failAfter: math.MaxInt64 / 2}
			seen := 0
			o.EmitBatch = func([]geom.Pair) {
				if seen++; seen == j {
					ctx.polls.Store(ctx.failAfter)
				}
			}
			if _, err := Join(ctx, a, b, o); !errors.Is(err, context.Canceled) || seen != j {
				t.Fatalf("context failing inside callback %d of %d: Join returned %v after %d callbacks", j, perRun, err, seen)
			}
			if got := pairbuf.Outstanding(); got != loaned {
				t.Fatalf("context failing inside callback %d of %d: %d pooled buffers still on loan", j, perRun, got-loaned)
			}
		}
	}
}

// TestKernelPollsByWork: cancellation latency is bounded in work, not
// in records. Few coarse stripes over tall records make every advance
// scan thousands of candidates; the kernel must still reach a poll at
// least once per 64k comparisons.
func TestKernelPollsByWork(t *testing.T) {
	big := geom.NewRect(0, 0, 10_000, 10_000)
	a, b := datagen.Tall(1, 20_000, big), datagen.Tall(2, 20_000, big)
	ctx := &pollCtx{Context: context.Background(), failAfter: math.MaxInt64}
	rep, err := Join(ctx, a, b, Options{Universe: big, Workers: 1, Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	polls, records := ctx.polls.Load(), int64(len(a)+len(b))
	t.Logf("%d comparisons over %d records, %d polls", rep.Sweep.Comparisons, records, polls)
	if rep.Sweep.Comparisons < 100*records {
		t.Fatalf("workload is not scan-bound: %d comparisons for %d records", rep.Sweep.Comparisons, records)
	}
	if polls < rep.Sweep.Comparisons/65536 {
		t.Fatalf("%d polls for %d comparisons: fewer than one per 64k", polls, rep.Sweep.Comparisons)
	}
}

// guardShape is one seeded workload of the stripe-rule guard with the
// ceilings its automatic join must stay under.
type guardShape struct {
	name     string
	universe geom.Rect
	a, b     []geom.Record
	// maxScan bounds Report.Sweep.Comparisons / Report.Pairs, the
	// candidates the kernel tests per result pair; maxReplication
	// bounds Report.Replication. Both sit about a third above what
	// the rule achieves today (see EXPERIMENTS.md, "Array sweep").
	maxScan, maxReplication float64
}

// skewed generates n thin records of which all but one in 50 have
// their x-center inside the leftmost 0.01% of the region's x-span (at
// the left edge, where float32 still resolves them) — the shape on
// which all but a few quantile boundaries share one cell of the
// partitioner's lookup table. Thin on purpose: records wide relative
// to the sliver are a known weakness of stripeCount (see its comment),
// and this shape is here for the lookup.
func skewed(seed int64, n int, region geom.Rect) []geom.Record {
	rng := rand.New(rand.NewSource(seed))
	w, h := float64(region.Width()), float64(region.Height())
	recs := make([]geom.Record, n)
	for i := range recs {
		x := float64(region.XLo) + rng.Float64()*w/10_000
		if i%50 == 0 {
			x = float64(region.XLo) + rng.Float64()*w
		}
		y := float64(region.YLo) + rng.Float64()*h
		dx, dy := rng.Float64()*w/50_000_000, rng.Float64()*h/2500
		recs[i] = geom.Record{ID: uint32(i), Rect: geom.NewRect(
			geom.Coord(x-dx), geom.Coord(y-dy), geom.Coord(x+dx), geom.Coord(y+dy))}
	}
	return recs
}

func guardShapes() []guardShape {
	nja, njb := tiger.Config{Scale: 0.25, Seed: 1997}.Generate(tiger.NJ)
	small := geom.NewRect(0, 0, 1000, 1000)
	mid := geom.NewRect(0, 0, 10_000, 10_000)
	big := geom.NewRect(0, 0, 100_000, 100_000)
	terrain := datagen.NewTerrain(1997, big, 40)
	return []guardShape{
		{"nj-like", tiger.NJ.Region, nja, njb, 3.3, 1.6},
		{"uniform", small, datagen.Uniform(1, 16_000, small, 30), datagen.Uniform(2, 12_000, small, 30), 2.8, 2.2},
		{"tall", mid, datagen.Tall(1, 20_000, mid), datagen.Tall(2, 20_000, mid), 4, 1.8},
		{"dense", big, datagen.Uniform(1, 100_000, big, 40), datagen.Uniform(2, 100_000, big, 40), 34, 1.1},
		{"clustered", big, datagen.Roads(terrain, 1, 40_000, datagen.RoadParams{}),
			datagen.Hydro(terrain, 2, 24_000, datagen.HydroParams{}), 2.8, 2.7},
		{"skewed", big, skewed(1, 60_000, big), skewed(2, 60_000, big), 34, 1.1},
	}
}

// BenchmarkDistributeSkewed is the distribution prefix where the lookup
// table is at its worst: at K = 800 nearly all boundaries of the skewed
// shape share one table cell, so Range bisects them for every record.
func BenchmarkDistributeSkewed(b *testing.B) {
	big := geom.NewRect(0, 0, 100_000, 100_000)
	ra, rb := skewed(1, 200_000, big), skewed(2, 200_000, big)
	part := NewPartitioner(big, 800, ra, rb)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := distribute(context.Background(), part, ra, rb, 1)
		if err != nil {
			b.Fatal(err)
		}
		d.release()
	}
}

// TestOfMatchesBinarySearch pins the table lookup behind Of to the
// definition — the number of boundaries at or below x — on spread and
// on crowded boundaries, at every boundary and its float neighbours,
// and outside the table. The skewed partitioners must put more than
// walkMax boundaries into one cell, so the bisection is what is tested
// there, as the walk is elsewhere.
func TestOfMatchesBinarySearch(t *testing.T) {
	big := geom.NewRect(0, 0, 100_000, 100_000)
	sa, sb := skewed(1, 60_000, big), skewed(2, 60_000, big)
	ua := datagen.Uniform(1, 16_000, big, 30)
	fromBounds, err := PartitionerFromBoundaries(big, []geom.Coord{1, 2, 3, 4, 5, 6, 7, 90_000})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		p       *Partitioner
		crowded bool
	}{
		"uniform":         {NewPartitioner(big, 64, ua), false},
		"equal-width":     {NewPartitioner(big, 64), false},
		"one-boundary":    {NewPartitioner(big, 2, ua), false},
		"skewed-108":      {NewPartitioner(big, 108, sa, sb), true},
		"skewed-800":      {NewPartitioner(big, 800, sa, sb), true},
		"from-boundaries": {fromBounds, true},
	} {
		p := tc.p
		crowd := 0
		for c := 0; c+1 < len(p.cells); c++ {
			crowd = max(crowd, int(p.cells[c+1]-p.cells[c]))
		}
		if tc.crowded != (crowd > walkMax) {
			t.Fatalf("%s: the fullest cell holds %d boundaries (walkMax %d)", name, crowd, walkMax)
		}
		inf := geom.Coord(math.Inf(1))
		xs := []geom.Coord{-inf, inf, geom.Coord(math.NaN()), big.XLo, big.XHi, -1e9, 1e9}
		for _, b := range p.bounds {
			xs = append(xs, b, math.Nextafter32(b, -inf), math.Nextafter32(b, inf))
		}
		for _, r := range sa[:2000] {
			xs = append(xs, r.Rect.XLo, r.Rect.XHi)
		}
		for _, r := range ua[:2000] {
			xs = append(xs, r.Rect.XLo)
		}
		for _, x := range xs {
			want, _ := slices.BinarySearchFunc(p.bounds, x, func(b, x geom.Coord) int {
				if b <= x {
					return -1 // first boundary above x
				}
				return 1
			})
			if got := p.Of(x); got != want {
				t.Fatalf("%s: Of(%v) = %d, %d boundaries are at or below it", name, x, got, want)
			}
		}
	}
}

// TestStripeRuleGuard is the deterministic performance guard of the
// automatic stripe count: everything it asserts is a count, so a
// regression of stripeCount fails here and not only in the load
// benchmark. On each shape the automatic join must stay under fixed
// ceilings of scan work per pair and of replication, and the chosen K
// must be within a factor of two of the best K on a ladder of
// doublings around it, best by the rule's own cost function evaluated
// on measured comparisons and placements. Where the cost curve is so
// flat that the best K is further away than that, being within 10% of
// its cost is accepted instead. (A rule that sizes K from the record
// count alone picks about 20 on the tall shape, where the right answer
// is about 1000 and costs thirty times less.)
func TestStripeRuleGuard(t *testing.T) {
	cost := func(rep Report) float64 {
		return comparisonCost*float64(rep.Sweep.Comparisons) +
			placementCost*float64(rep.ReplicatedRecords) + partitionCost*float64(rep.Partitions)
	}
	for _, sh := range guardShapes() {
		join := func(k int) Report {
			rep, err := Join(context.Background(), sh.a, sh.b, Options{Universe: sh.universe, Workers: 1, Partitions: k})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		auto := join(0)
		scan := float64(auto.Sweep.Comparisons) / float64(auto.Pairs)
		if scan > sh.maxScan || auto.Replication > sh.maxReplication {
			t.Errorf("%s: K=%d scans %.2f candidates per pair (ceiling %.2f) at replication %.3f (ceiling %.2f)",
				sh.name, auto.Partitions, scan, sh.maxScan, auto.Replication, sh.maxReplication)
		}
		best, bestFactor := auto, 1.0
		for _, factor := range []float64{1. / 8, 1. / 4, 1. / 2, 2, 4, 8} {
			k := int(float64(auto.Partitions) * factor)
			if k < 1 {
				continue
			}
			if rep := join(k); cost(rep) < cost(best) {
				best, bestFactor = rep, factor
			}
		}
		t.Logf("%s: K=%d, %.2f candidates/pair, replication %.3f, cost %.2f ms; best on the ladder K=%d at %.2f ms",
			sh.name, auto.Partitions, scan, auto.Replication, cost(auto)/1e6, best.Partitions, cost(best)/1e6)
		if (bestFactor < 0.5 || bestFactor > 2) && cost(auto) > 1.1*cost(best) {
			t.Errorf("%s: the rule chose K=%d (cost %.0f), but K=%d costs %.0f", sh.name,
				auto.Partitions, cost(auto), best.Partitions, cost(best))
		}
	}
}
