package parallel

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
)

var universe = geom.NewRect(0, 0, 1000, 1000)

// clustered generates TIGER-like skewed inputs sharing one terrain.
func clustered(seed int64, nRoads, nHydro int) (roads, hydro []geom.Record) {
	t := datagen.NewTerrain(seed, universe, 12)
	return datagen.Roads(t, seed+1, nRoads, datagen.RoadParams{}),
		datagen.Hydro(t, seed+2, nHydro, datagen.HydroParams{})
}

func brute(a, b []geom.Record) map[geom.Pair]bool {
	out := map[geom.Pair]bool{}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Rect.Intersects(rb.Rect) {
				out[geom.Pair{Left: ra.ID, Right: rb.ID}] = true
			}
		}
	}
	return out
}

func collectPairs(t *testing.T, a, b []geom.Record, o Options) (Report, map[geom.Pair]bool) {
	t.Helper()
	got := map[geom.Pair]bool{}
	o.Emit = func(p geom.Pair) {
		if got[p] {
			t.Fatalf("pair %v emitted twice", p)
		}
		got[p] = true
	}
	rep, err := Join(context.Background(), a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	return rep, got
}

func TestJoinMatchesBruteForce(t *testing.T) {
	workloads := map[string]func() ([]geom.Record, []geom.Record){
		"uniform": func() ([]geom.Record, []geom.Record) {
			return datagen.Uniform(1, 900, universe, 30), datagen.Uniform(2, 700, universe, 30)
		},
		"clustered": func() ([]geom.Record, []geom.Record) {
			return clustered(7, 900, 500)
		},
	}
	for name, gen := range workloads {
		a, b := gen()
		want := brute(a, b)
		for _, k := range []int{1, 2, 3, 8, 19} {
			for _, workers := range []int{1, 4} {
				rep, got := collectPairs(t, a, b, Options{
					Universe: universe, Workers: workers, Partitions: k,
				})
				if rep.Pairs != int64(len(want)) || len(got) != len(want) {
					t.Fatalf("%s k=%d w=%d: %d pairs (emitted %d), want %d",
						name, k, workers, rep.Pairs, len(got), len(want))
				}
				for p := range want {
					if !got[p] {
						t.Fatalf("%s k=%d w=%d: missing %v", name, k, workers, p)
					}
				}
				if rep.Replication < 1 {
					t.Fatalf("replication %f < 1", rep.Replication)
				}
			}
		}
	}
}

func TestJoinMatchesSerial(t *testing.T) {
	a, b := clustered(42, 1200, 800)
	o := Options{Universe: universe}
	serial, err := Serial(context.Background(), a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 11} { // the automatic stripe count, and an explicit one
		o.Workers = 3
		o.Partitions = k
		rep, err := Join(context.Background(), a, b, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs != serial.Pairs {
			t.Fatalf("partitions=%d: parallel %d pairs, serial %d", k, rep.Pairs, serial.Pairs)
		}
	}
}

func TestWindowSemantics(t *testing.T) {
	a, b := clustered(5, 600, 400)
	w := geom.NewRect(100, 100, 400, 400)
	// Match the serial algorithms: both records must intersect the
	// window for the pair to qualify.
	want := 0
	for _, ra := range a {
		if !ra.Rect.Intersects(w) {
			continue
		}
		for _, rb := range b {
			if rb.Rect.Intersects(w) && ra.Rect.Intersects(rb.Rect) {
				want++
			}
		}
	}
	rep, err := Join(context.Background(), a, b, Options{Universe: universe, Partitions: 6, Workers: 2, Window: &w})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != int64(want) {
		t.Fatalf("windowed pairs = %d, want %d", rep.Pairs, want)
	}
	srep, err := Serial(context.Background(), a, b, Options{Universe: universe, Window: &w})
	if err != nil {
		t.Fatal(err)
	}
	if srep.Pairs != int64(want) {
		t.Fatalf("serial windowed pairs = %d, want %d", srep.Pairs, want)
	}
}

func TestEmitOrderDeterministic(t *testing.T) {
	a, b := clustered(9, 800, 500)
	runOnce := func(workers int) []geom.Pair {
		var out []geom.Pair
		_, err := Join(context.Background(), a, b, Options{
			Universe: universe, Workers: workers, Partitions: 8,
			Emit: func(p geom.Pair) { out = append(out, p) },
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
	if rep.Sweep.Pairs < rep.Pairs {
		t.Fatalf("kernel candidates %d < results %d", rep.Sweep.Pairs, rep.Pairs)
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
	// Stripes tile the universe.
	for i := 0; i < 8; i++ {
		s := p.Stripe(i)
		if !s.Valid() {
			t.Fatalf("stripe %d invalid: %v", i, s)
		}
		if i == 0 && s.XLo != universe.XLo {
			t.Fatal("first stripe must start at the universe edge")
		}
		if i == 7 && s.XHi != universe.XHi {
			t.Fatal("last stripe must end at the universe edge")
		}
		if i > 0 && p.Stripe(i-1).XHi != s.XLo {
			t.Fatalf("gap between stripes %d and %d", i-1, i)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, err := Join(context.Background(), nil, nil, Options{Universe: geom.EmptyRect()}); err == nil {
		t.Fatal("invalid universe must error")
	}
	if _, err := Serial(context.Background(), nil, nil, Options{Universe: geom.EmptyRect()}); err == nil {
		t.Fatal("invalid universe must error in Serial")
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
		owner := p.Owner(x, y)
		ref := x.XLo
		if y.XLo > ref {
			ref = y.XLo
		}
		for i, r := range ranges {
			in := ref >= r[0] && ref < r[1]
			if in != (i == owner) {
				t.Fatalf("ref %g: Owner says %d, range test says stripe %d is %v", ref, owner, i, in)
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
	if want := int64(len(brute(recs, recs))); rep.Pairs != want {
		t.Fatalf("degenerate join pairs = %d, want %d", rep.Pairs, want)
	}
}

func TestEmitBatchMatchesEmit(t *testing.T) {
	a, b := clustered(31, 1000, 700)
	o := Options{Universe: universe, Workers: 3, Partitions: 9}
	_, viaEmit := collectPairs(t, a, b, o)

	for name, join := range map[string]func(context.Context, []geom.Record, []geom.Record, Options) (Report, error){
		"parallel": Join, "serial": Serial,
	} {
		got := map[geom.Pair]bool{}
		var batches int
		ob := o
		ob.EmitBatch = func(ps []geom.Pair) {
			batches++
			for _, p := range ps {
				if got[p] {
					t.Fatalf("%s: batch duplicated %v", name, p)
				}
				got[p] = true
			}
		}
		rep, err := join(context.Background(), a, b, ob)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(viaEmit) || rep.Pairs != int64(len(viaEmit)) {
			t.Fatalf("%s: EmitBatch delivered %d pairs, Emit %d", name, len(got), len(viaEmit))
		}
		for p := range viaEmit {
			if !got[p] {
				t.Fatalf("%s: missing %v", name, p)
			}
		}
		if batches == 0 {
			t.Fatalf("%s: no batches delivered", name)
		}
	}
}

func TestEmitAndEmitBatchExclusive(t *testing.T) {
	o := Options{
		Universe:  universe,
		Emit:      func(geom.Pair) {},
		EmitBatch: func([]geom.Pair) {},
	}
	if _, err := Join(context.Background(), nil, nil, o); err == nil {
		t.Fatal("Emit+EmitBatch must be rejected")
	}
	for _, tc := range []struct {
		name string
		opts Options
		is   error // nil: any error
	}{
		{"Emit+EmitBatch", o, nil},
		{"Own is refused, not dropped", Options{Universe: universe, Own: &geom.Interval{Lo: 0, Hi: 1}}, errors.ErrUnsupported},
	} {
		_, err := Serial(context.Background(), nil, nil, tc.opts)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Fatalf("Serial, %s: err = %v", tc.name, err)
		}
	}
}

func TestJoinCanceledBeforeStart(t *testing.T) {
	a, b := clustered(33, 500, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Join(ctx, a, b, Options{Universe: universe}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Join err = %v, want context.Canceled", err)
	}
	if _, err := Serial(ctx, a, b, Options{Universe: universe}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serial err = %v, want context.Canceled", err)
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
	if err == nil {
		t.Skip("join outran the cancel on this host")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
