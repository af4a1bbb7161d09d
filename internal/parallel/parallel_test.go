package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/jointest"
	"unijoin/internal/pairbuf"
)

var universe = geom.NewRect(0, 0, 1000, 1000)

// clustered generates TIGER-like skewed inputs sharing one terrain.
func clustered(seed int64, nRoads, nHydro int) (roads, hydro []geom.Record) {
	t := datagen.NewTerrain(seed, universe, 12)
	return datagen.Roads(t, seed+1, nRoads, datagen.RoadParams{}),
		datagen.Hydro(t, seed+2, nHydro, datagen.HydroParams{})
}

// pairSequence runs Join and returns its report with the pairs in the
// order it emitted them; the report's count must be theirs.
func pairSequence(t *testing.T, a, b []geom.Record, o Options) (Report, []geom.Pair) {
	t.Helper()
	var seq []geom.Pair
	o.EmitBatch = func(ps []geom.Pair) { seq = append(seq, ps...) }
	rep, err := Join(context.Background(), a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != int64(len(seq)) {
		t.Fatalf("the report counts %d pairs, %d were emitted", rep.Pairs, len(seq))
	}
	return rep, seq
}

// joinedPairs is pairSequence for callers the order does not matter
// to.
func joinedPairs(t *testing.T, a, b []geom.Record, o Options) (Report, jointest.Bag[geom.Pair]) {
	t.Helper()
	rep, seq := pairSequence(t, a, b, o)
	return rep, jointest.BagOf(seq)
}

// TestJoinMatchesBruteForce: on two workloads of its own size and on
// every shape of the shared generator, Join reports exactly the
// reference's pairs at every stripe and worker count, windowed and not
// — among them eight stripes whose boundaries are pinned to the cuts the
// shapes were drawn over, so that the on-cuts records do sit on them,
// with and without the window (the layout's boundaries are asserted to
// be the cuts) — the pair sequence does not depend on the order the inputs arrive in,
// and the boundary-sitting runs between them both find pairs in the
// A×B and B×A mini-joins and skip B×B pairs that do intersect.
func TestJoinMatchesBruteForce(t *testing.T) {
	cuts := []geom.Coord{125, 250, 375, 500, 625, 750, 875}
	// One sample of k values puts the k-1 quantile boundaries on its
	// last k-1 values.
	pinned := [][]geom.Coord{append([]geom.Coord{universe.XLo}, cuts...)}
	if got := NewPartitionerFromSamples(universe, len(cuts)+1, pinned...).Boundaries(); !slices.Equal(got, cuts) {
		t.Fatalf("the pinned sample places boundaries at %v, want %v", got, cuts)
	}
	ca, cb := clustered(7, 900, 500)
	la, lb := clustered(42, 1200, 800)
	workloads := map[string][2][]geom.Record{
		"uniform-900":    {datagen.Uniform(1, 900, universe, 30), datagen.Uniform(2, 700, universe, 30)},
		"clustered-900":  {ca, cb},
		"clustered-1200": {la, lb},
	}
	for _, sh := range jointest.Shapes {
		in := sh.Gen(1, universe, cuts)
		workloads[sh.Name] = [2][]geom.Record{in.A, in.B}
	}
	window := geom.NewRect(200, 200, 700, 700)
	var sawCross, sawSkipped bool
	for name, in := range workloads {
		a, b := in[0], in[1]
		sortedA, sortedB := slices.Clone(a), slices.Clone(b)
		slices.SortFunc(sortedA, geom.ByLowerY)
		slices.SortFunc(sortedB, geom.ByLowerY)
		for _, w := range []*geom.Rect{nil, &window} {
			want := jointest.Join(a, b, w)
			stripes := []Options{{Partitions: len(cuts) + 1, SortedSamples: pinned}}
			for _, k := range []int{0, 1, 2, 3, 8, 11, 19, len(a) + len(b) + 1} {
				stripes = append(stripes, Options{Partitions: k})
			}
			for _, o := range stripes {
				for _, workers := range []int{1, 3, 4} {
					o.Universe, o.Window, o.Workers = universe, w, workers
					what := fmt.Sprintf("%s window=%v k=%d pinned=%v w=%d", name, w != nil, o.Partitions, o.SortedSamples != nil, workers)
					rep, seq := pairSequence(t, a, b, o)
					jointest.CheckJoin(t, what, a, b, want, jointest.BagOf(seq))
					if o.SortedSamples != nil {
						if got := layoutBoundaries(t, a, b, o); !slices.Equal(got, cuts) {
							t.Fatalf("%s: the pinned layout's boundaries are %v, want the cuts %v", what, got, cuts)
						}
					}
					if rep.InputRecords > 0 && rep.Replication < 1 {
						t.Fatalf("%s: replication %f < 1", what, rep.Replication)
					}
					if _, fromSorted := pairSequence(t, sortedA, sortedB, o); !slices.Equal(seq, fromSorted) {
						t.Fatalf("%s: the pair sequence depends on the input order", what)
					}
					if name == "on-cuts" {
						cross, skipped := classMeetings(t, a, b, o)
						sawCross, sawSkipped = sawCross || cross, sawSkipped || skipped
					}
				}
			}
		}
	}
	if !sawCross || !sawSkipped {
		t.Fatalf("the on-cuts runs must sweep A×B pairs (%v) and hold B×B pairs they skip (%v)", sawCross, sawSkipped)
	}
}

// layoutBoundaries returns the stripe boundaries the join of a and b
// under o lays its stripes out on.
func layoutBoundaries(t *testing.T, a, b []geom.Record, o Options) []geom.Coord {
	t.Helper()
	o, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	l, err := arrange(context.Background(), a, b, o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.release()
	return l.part.Boundaries()
}

// classMeetings lays out the join of a and b under o and reports
// whether some stripe holds an intersecting pair of an A and a B member,
// which its A×B or B×A mini-join finds, and whether some stripe holds an
// intersecting pair of two B members, which its sweep skips.
func classMeetings(t *testing.T, a, b []geom.Record, o Options) (cross, skipped bool) {
	t.Helper()
	o, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	l, err := arrange(context.Background(), a, b, o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.release()
	meet := func(x, y []geom.Record) bool {
		for _, r := range x {
			for _, s := range y {
				if r.Rect.Intersects(s.Rect) {
					return true
				}
			}
		}
		return false
	}
	for _, s := range l.stripes {
		cross = cross || meet(s.a.A, s.b.B) || meet(s.a.B, s.b.A)
		skipped = skipped || meet(s.a.B, s.b.B)
	}
	return cross, skipped
}

func TestWindowSemantics(t *testing.T) {
	a, b := clustered(5, 600, 400)
	w := geom.NewRect(100, 100, 400, 400)
	// Match the serial algorithms: both records must intersect the
	// window for the pair to qualify.
	want := jointest.Join(a, b, &w).Len()
	rep, err := Join(context.Background(), a, b, Options{Universe: universe, Partitions: 6, Workers: 2, Window: &w})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != want {
		t.Fatalf("windowed pairs = %d, want %d", rep.Pairs, want)
	}
}

func TestEmitOrderDeterministic(t *testing.T) {
	a, b := clustered(9, 800, 500)
	runOnce := func(workers int) []geom.Pair {
		var out []geom.Pair
		_, err := Join(context.Background(), a, b, Options{
			Universe: universe, Workers: workers, Partitions: 8,
			EmitBatch: func(ps []geom.Pair) { out = append(out, ps...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := runOnce(1)
	if len(first) == 0 {
		t.Fatal("no pairs emitted")
	}
	for _, workers := range []int{2, 4} {
		if got := runOnce(workers); !reflect.DeepEqual(first, got) {
			t.Fatalf("emit order differs between 1 and %d workers", workers)
		}
	}
}

func TestReportAccounting(t *testing.T) {
	a, b := clustered(11, 1000, 600)
	rep, err := Join(context.Background(), a, b, Options{Universe: universe, Workers: 4, Partitions: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions != 12 || rep.Workers != 4 {
		t.Fatalf("resolved %d workers x %d partitions", rep.Workers, rep.Partitions)
	}
	if rep.InputRecords != int64(len(a)+len(b)) {
		t.Fatalf("input records = %d", rep.InputRecords)
	}
	if rep.ReplicatedRecords < rep.InputRecords {
		t.Fatalf("replicated %d < input %d", rep.ReplicatedRecords, rep.InputRecords)
	}
	if rep.Wall <= 0 || rep.SweepWall <= 0 {
		t.Fatalf("missing wall times: %+v", rep)
	}
	var workerPairs, workerParts int64
	var records int64
	for _, ws := range rep.PerWorker {
		workerPairs += ws.Pairs
		workerParts += int64(ws.Partitions)
		records += ws.Records
	}
	if workerPairs != rep.Pairs {
		t.Fatalf("worker shards sum to %d, report says %d", workerPairs, rep.Pairs)
	}
	if workerParts != int64(rep.Partitions) {
		t.Fatalf("workers processed %d partitions of %d", workerParts, rep.Partitions)
	}
	if records != rep.ReplicatedRecords {
		t.Fatalf("workers swept %d records, replicated %d", records, rep.ReplicatedRecords)
	}
	if rep.Comparisons < rep.Pairs {
		t.Fatalf("kernel comparisons %d < results %d", rep.Comparisons, rep.Pairs)
	}
	if rep.Speedup(rep) != 1 {
		t.Fatalf("self-speedup = %f", rep.Speedup(rep))
	}
}

func TestPartitionerBalance(t *testing.T) {
	a, b := clustered(13, 4000, 2000)
	p := NewPartitioner(universe, 8, a, b)
	if p.Partitions() != 8 {
		t.Fatalf("partitions = %d", p.Partitions())
	}
	buckets := make([][]geom.Record, 8)
	p.Distribute(a, buckets)
	p.Distribute(b, buckets)
	max, min := 0, len(a)+len(b)
	for _, bk := range buckets {
		if len(bk) > max {
			max = len(bk)
		}
		if len(bk) < min {
			min = len(bk)
		}
	}
	// Quantile boundaries must keep even heavily clustered data within
	// a small factor of perfectly balanced.
	avg := (len(a) + len(b)) / 8
	if max > 3*avg {
		t.Fatalf("worst stripe holds %d records, average %d", max, avg)
	}
	// Stripes tile the line: every boundary lies inside the universe,
	// the first stripe owns everything left of it and the last
	// everything right of it, and each starts where the one before ends.
	for i := 0; i < 8; i++ {
		lo, hi := p.OwnerRange(i)
		if !(lo < hi) {
			t.Fatalf("stripe %d owns [%g, %g)", i, lo, hi)
		}
		if i == 0 && !math.IsInf(float64(lo), -1) {
			t.Fatalf("first stripe starts at %g, not at -Inf", lo)
		}
		if i == 7 && !math.IsInf(float64(hi), 1) {
			t.Fatalf("last stripe ends at %g, not at +Inf", hi)
		}
		if i > 0 {
			if lo <= universe.XLo || lo >= universe.XHi {
				t.Fatalf("boundary %g lies outside the universe %v", lo, universe)
			}
			if _, prev := p.OwnerRange(i - 1); prev != lo {
				t.Fatalf("gap between stripes %d and %d", i-1, i)
			}
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, err := Join(context.Background(), nil, nil, Options{Universe: geom.EmptyRect()}); err == nil {
		t.Fatal("invalid universe must error")
	}
	rep, err := Join(context.Background(), nil, nil, Options{Universe: universe})
	if err != nil || rep.Pairs != 0 {
		t.Fatalf("empty join: %v pairs %d", err, rep.Pairs)
	}
	// Single record pair with duplicated x-coordinates (degenerate
	// quantiles) still joins correctly.
	a := []geom.Record{{Rect: geom.NewRect(5, 5, 6, 6), ID: 1}}
	b := []geom.Record{{Rect: geom.NewRect(5.5, 5.5, 7, 7), ID: 2}}
	rep, err = Join(context.Background(), a, b, Options{Universe: universe, Partitions: 16})
	if err != nil || rep.Pairs != 1 {
		t.Fatalf("tiny join: %v pairs %d", err, rep.Pairs)
	}
	// Records outside the universe are clamped into boundary stripes.
	out := []geom.Record{{Rect: geom.NewRect(-500, -500, -400, -400), ID: 3}}
	rep, err = Join(context.Background(), out, out, Options{Universe: universe, Partitions: 4})
	if err != nil || rep.Pairs != 1 {
		t.Fatalf("outside-universe join: %v pairs %d", err, rep.Pairs)
	}
}

func TestOwnerRangeMatchesOwner(t *testing.T) {
	a, b := clustered(21, 2000, 1000)
	p := NewPartitioner(universe, 7, a, b)
	ranges := make([][2]geom.Coord, p.Partitions())
	for i := range ranges {
		ranges[i][0], ranges[i][1] = p.OwnerRange(i)
	}
	check := func(x, y geom.Rect) {
		ref := max(x.XLo, y.XLo)
		owner, _ := p.Range(geom.Rect{XLo: ref, XHi: ref})
		for i, r := range ranges {
			in := ref >= r[0] && ref < r[1]
			if in != (i == owner) {
				t.Fatalf("ref %g: Range puts it in stripe %d, range test says stripe %d is %v", ref, owner, i, in)
			}
		}
	}
	for i := 0; i < 200; i++ {
		check(a[i].Rect, b[i].Rect)
	}
	// Boundary stripes must own everything outside the universe too.
	check(geom.NewRect(-1e9, 0, -1e9, 1), geom.NewRect(-1e9, 0, -1e9, 1))
	check(geom.NewRect(1e9, 0, 1e9, 1), geom.NewRect(1e9, 0, 1e9, 1))
}

func TestPartitionerDegenerateUniverse(t *testing.T) {
	// Zero-width universe collapses to one stripe when unsampled.
	line := geom.Rect{XLo: 5, YLo: 0, XHi: 5, YHi: 10}
	p := NewPartitioner(line, 4)
	if p.Partitions() != 1 {
		t.Fatalf("degenerate universe partitions = %d", p.Partitions())
	}
	// With sampled data, all-equal centers collapse every duplicate
	// quantile boundary, so the partitioner degrades to one stripe
	// and stays correct.
	recs := []geom.Record{
		{Rect: geom.NewRect(5, 0, 5, 1), ID: 1},
		{Rect: geom.NewRect(5, 0, 5, 2), ID: 2},
		{Rect: geom.NewRect(5, 1, 5, 3), ID: 3},
		{Rect: geom.NewRect(5, 2, 5, 4), ID: 4},
	}
	rep, err := Join(context.Background(), recs, recs, Options{Universe: line, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := jointest.Join(recs, recs, nil).Len(); rep.Pairs != want {
		t.Fatalf("degenerate join pairs = %d, want %d", rep.Pairs, want)
	}
}

// TestEmitBatchMatchesEmit: the per-pair form of the output is a loop
// over the batches (what a per-pair consumer, Query.Emit, runs), so
// the pairs it sees are the reference's, batch by batch in the order
// the batches arrive, at every worker count; no batch is empty, and
// there is one per stripe at most.
func TestEmitBatchMatchesEmit(t *testing.T) {
	a, b := clustered(31, 1000, 700)
	want := jointest.Join(a, b, nil)
	var first []geom.Pair
	for _, workers := range []int{1, 3} {
		var perPair []geom.Pair
		emit := func(p geom.Pair) { perPair = append(perPair, p) }
		var batches int
		o := Options{Universe: universe, Workers: workers, Partitions: 9, EmitBatch: func(ps []geom.Pair) {
			if len(ps) == 0 {
				t.Fatal("parallel: an empty batch was handed over")
			}
			batches++
			for _, p := range ps {
				emit(p)
			}
		}}
		rep, err := Join(context.Background(), a, b, o)
		if err != nil {
			t.Fatal(err)
		}
		jointest.CheckJoin(t, fmt.Sprintf("parallel: per-pair loop over EmitBatch, %d workers", workers), a, b, want, jointest.BagOf(perPair))
		if rep.Pairs != int64(len(perPair)) || batches == 0 || batches > rep.Partitions {
			t.Fatalf("parallel: the report counts %d pairs, %d arrived in %d batches over %d stripes", rep.Pairs, len(perPair), batches, rep.Partitions)
		}
		if first == nil {
			first = perPair
		} else if !slices.Equal(perPair, first) {
			t.Fatalf("parallel: the per-pair sequence differs between 1 and %d workers", workers)
		}
	}
}

// TestEmitAndEmitBatchExclusive: a join has one output form, so the
// only choice left is whether it hands its pairs over at all. A join
// with EmitBatch and one without are the same join — the same counters
// — and either way every pooled buffer is back when Join returns.
func TestEmitAndEmitBatchExclusive(t *testing.T) {
	a, b := clustered(37, 1000, 700)
	o := Options{Universe: universe, Workers: 3, Partitions: 9}
	loaned := pairbuf.Outstanding()
	counted, err := Join(context.Background(), a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := pairbuf.Outstanding() - loaned; n != 0 {
		t.Fatalf("a counting join left %d pair buffers on loan", n)
	}
	emitted, seq := pairSequence(t, a, b, o)
	if n := pairbuf.Outstanding() - loaned; n != 0 {
		t.Fatalf("a handing-over join left %d pair buffers on loan", n)
	}
	if len(seq) == 0 || !reflect.DeepEqual(countersOf(counted), countersOf(emitted)) {
		t.Fatalf("counting reports\n%+v\nhanding over %d pairs\n%+v", countersOf(counted), len(seq), countersOf(emitted))
	}
}

func TestJoinCanceledBeforeStart(t *testing.T) {
	a, b := clustered(33, 500, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Join(ctx, a, b, Options{Universe: universe}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Join err = %v, want context.Canceled", err)
	}
}

func TestJoinCancelMidRun(t *testing.T) {
	// A workload large enough that a cancel a few milliseconds in lands
	// mid-sweep; the worker pool's select and the kernel's periodic
	// checks must stop the join. Run under -race in CI, this also
	// proves the cancellation path is race-free.
	big := geom.NewRect(0, 0, 100_000, 100_000)
	a := datagen.Uniform(41, 120_000, big, 40)
	b := datagen.Uniform(42, 120_000, big, 40)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	_, err := Join(ctx, a, b, Options{Universe: big, Workers: 4})
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err == nil {
		t.Log("join outran the timed cancel on this host")
	}

	// The cancel that cannot be outrun: from inside the callback, mid-
	// stream — a consumer giving up on the third stripe it is handed,
	// with the workers already on the stripes after it. Join must stop
	// there, take back every buffer swept ahead of the hand-over, and
	// return only once its workers have.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		loaned, goroutines := pairbuf.Outstanding(), runtime.NumGoroutine()
		batches := 0
		_, err := Join(ctx, a, b, Options{Universe: big, Workers: workers, Partitions: 64, EmitBatch: func([]geom.Pair) {
			if batches++; batches == 3 {
				cancel()
			}
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || batches != 3 {
			t.Fatalf("workers=%d: canceled inside the third callback, Join returned %v after %d callbacks", workers, err, batches)
		}
		if got := pairbuf.Outstanding(); got != loaned {
			t.Fatalf("workers=%d: %d pooled buffers still on loan after the canceled join", workers, got-loaned)
		}
		// A worker's deferred wg.Done can be observed a moment before its
		// goroutine has exited, so the count gets a bounded wait to come
		// back down; a worker that is really left behind never does.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			got := runtime.NumGoroutine()
			if got <= goroutines {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines before the canceled join, %d after it", workers, goroutines, got)
			}
		}
	}
}
