package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"unijoin/internal/geom"
	"unijoin/internal/jointest"
)

// genRects builds n random rectangles in a [0,span]x[0,span] universe
// with the given max extent, sorted by lower y as the kernel requires.
func genRects(rng *rand.Rand, n int, span, maxExt float64, idBase uint32) []geom.Record {
	recs := make([]geom.Record, n)
	for i := range recs {
		x := rng.Float64() * span
		y := rng.Float64() * span
		w := rng.Float64() * maxExt
		h := rng.Float64() * maxExt
		recs[i] = geom.Record{
			Rect: geom.NewRect(float32(x), float32(y), float32(x+w), float32(y+h)),
			ID:   idBase + uint32(i),
		}
	}
	sort.Slice(recs, func(i, j int) bool { return geom.ByLowerY(recs[i], recs[j]) < 0 })
	return recs
}

// joinedPairs runs the kernel and gathers the emitted pairs.
func joinedPairs(t *testing.T, a, b []geom.Record, mk func() Structure) (jointest.Bag[geom.Pair], Stats) {
	t.Helper()
	got := jointest.Bag[geom.Pair]{}
	stats, err := JoinSlices(context.Background(), a, b, mk, func(ra, rb geom.Record) {
		got.Add(geom.Pair{Left: ra.ID, Right: rb.ID})
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func structures(universe geom.Rect) map[string]func() Structure {
	return map[string]func() Structure{
		"forward":    func() Structure { return NewForward() },
		"striped":    func() Structure { return NewStripedFor(universe, DefaultStrips) },
		"striped-1":  func() Structure { return NewStripedFor(universe, 1) },
		"striped-7":  func() Structure { return NewStripedFor(universe, 7) },
		"striped-4k": func() Structure { return NewStripedFor(universe, 4096) },
	}
}

// TestJoinMatchesBruteForce: under every structure the kernel reports
// exactly the reference's pairs, on random rectangles and on every
// shape of the shared generator.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := geom.NewRect(0, 0, 1000, 1000)
	inputs := map[string][2][]geom.Record{"random": {genRects(rng, 300, 1000, 60, 0), genRects(rng, 300, 1000, 60, 10000)}}
	for _, sh := range jointest.Shapes {
		in := sh.Gen(11, universe, []geom.Coord{250, 500, 750})
		slices.SortFunc(in.A, geom.ByLowerY)
		slices.SortFunc(in.B, geom.ByLowerY)
		inputs[sh.Name] = [2][]geom.Record{in.A, in.B}
	}
	for name, mk := range structures(universe) {
		t.Run(name, func(t *testing.T) {
			for shape, in := range inputs {
				want := jointest.Join(in[0], in[1], nil)
				got, stats := joinedPairs(t, in[0], in[1], mk)
				jointest.CheckJoin(t, shape, in[0], in[1], want, got)
				if stats.Pairs != want.Len() {
					t.Fatalf("%s: stats.Pairs = %d, want %d", shape, stats.Pairs, want.Len())
				}
			}
		})
	}
}

func TestJoinPropertyRandomWorkloads(t *testing.T) {
	universe := geom.NewRect(0, 0, 500, 500)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genRects(rng, 50+rng.Intn(150), 500, 80, 0)
		b := genRects(rng, 50+rng.Intn(150), 500, 80, 50000)
		want := jointest.Join(a, b, nil)
		for _, mk := range structures(universe) {
			got := jointest.Bag[geom.Pair]{}
			_, err := JoinSlices(context.Background(), a, b, mk, func(ra, rb geom.Record) {
				got.Add(geom.Pair{Left: ra.ID, Right: rb.ID})
			})
			if missing, surplus := jointest.Diff(want, got); err != nil || len(missing)+len(surplus) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	universe := geom.NewRect(0, 0, 10, 10)
	a := genRects(rand.New(rand.NewSource(1)), 10, 10, 2, 0)
	for name, mk := range structures(universe) {
		t.Run(name, func(t *testing.T) {
			got, _ := joinedPairs(t, nil, nil, mk)
			if got.Len() != 0 {
				t.Fatal("empty x empty should be empty")
			}
			got, _ = joinedPairs(t, a, nil, mk)
			if got.Len() != 0 {
				t.Fatal("a x empty should be empty")
			}
			got, _ = joinedPairs(t, nil, a, mk)
			if got.Len() != 0 {
				t.Fatal("empty x a should be empty")
			}
		})
	}
}

func TestJoinDetectsUnsortedInput(t *testing.T) {
	a := []geom.Record{
		{Rect: geom.NewRect(0, 5, 1, 6), ID: 1},
		{Rect: geom.NewRect(0, 1, 1, 2), ID: 2}, // out of order
	}
	b := []geom.Record{{Rect: geom.NewRect(0, 0, 10, 10), ID: 3}}
	_, err := JoinSlices(context.Background(), a, b, func() Structure { return NewForward() }, func(_, _ geom.Record) {})
	if err == nil {
		t.Fatal("unsorted input must be rejected")
	}
}

func TestExpiryBoundsActiveSet(t *testing.T) {
	// Rectangles arranged in a tall column, each alive for a short y
	// range: the active set must stay small (the square-root rule in
	// the extreme).
	var a, b []geom.Record
	for i := 0; i < 2000; i++ {
		y := float32(i)
		a = append(a, geom.Record{Rect: geom.NewRect(0, y, 1, y+0.9), ID: uint32(i)})
		b = append(b, geom.Record{Rect: geom.NewRect(0.5, y, 1.5, y+0.9), ID: uint32(100000 + i)})
	}
	for name, mk := range structures(geom.NewRect(0, 0, 2000, 2000)) {
		t.Run(name, func(t *testing.T) {
			_, stats := joinedPairs(t, a, b, mk)
			// A handful of rectangles are alive at a time; each may
			// register in a few strips, and compaction is amortized, so
			// allow slack — a real expiry leak would reach thousands.
			if stats.MaxLen > 200 {
				t.Fatalf("active set grew to %d; expiry broken?", stats.MaxLen)
			}
		})
	}
}

func TestStatsTracksBytesAndComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := genRects(rng, 500, 100, 30, 0)
	b := genRects(rng, 500, 100, 30, 10000)
	_, stats := joinedPairs(t, a, b, func() Structure { return NewForward() })
	if stats.MaxBytes == 0 || stats.MaxLen == 0 {
		t.Fatalf("stats not tracked: %+v", stats)
	}
	if stats.Comparisons == 0 {
		t.Fatal("comparison count not tracked")
	}
	if stats.MaxBytes < stats.MaxLen*forwardEntrySize {
		t.Fatalf("bytes %d inconsistent with len %d", stats.MaxBytes, stats.MaxLen)
	}
}

func TestStripedCheaperThanForwardOnWideData(t *testing.T) {
	// Many horizontally-spread rectangles alive at once: Forward scans
	// the whole active list per query, Striped only the overlapping
	// strips. The comparison counts should differ by a wide margin;
	// this is the mechanism behind the 2-5x speedup reported in [4].
	rng := rand.New(rand.NewSource(4))
	universe := geom.NewRect(0, 0, 100000, 100)
	a := genRects(rng, 4000, 100000, 40, 0)
	b := genRects(rng, 4000, 100000, 40, 100000)
	// Flatten y so nearly everything is alive simultaneously.
	for i := range a {
		a[i].Rect.YLo, a[i].Rect.YHi = 0, 100
	}
	for i := range b {
		b[i].Rect.YLo, b[i].Rect.YHi = 0, 100
	}
	_, fstats := joinedPairs(t, a, b, func() Structure { return NewForward() })
	_, sstats := joinedPairs(t, a, b, func() Structure { return NewStripedFor(universe, 1024) })
	if sstats.Comparisons*2 >= fstats.Comparisons {
		t.Fatalf("striped (%d cmps) should beat forward (%d cmps) by >2x",
			sstats.Comparisons, fstats.Comparisons)
	}
}

func TestStripedClampsOutOfUniverseRecords(t *testing.T) {
	universe := geom.NewRect(0, 0, 100, 100)
	a := []geom.Record{{Rect: geom.NewRect(-50, 0, -10, 10), ID: 1}}
	b := []geom.Record{{Rect: geom.NewRect(-40, 5, -20, 15), ID: 2}}
	got, _ := joinedPairs(t, a, b, func() Structure { return NewStripedFor(universe, 16) })
	if got.Len() != 1 {
		t.Fatal("out-of-universe rectangles must still join correctly")
	}
}

func TestStripedDegenerateUniverse(t *testing.T) {
	s := NewStriped(5, 5, 8) // zero-width universe
	s.Insert(geom.Record{Rect: geom.NewRect(5, 0, 5, 10), ID: 1})
	var hits int
	s.QueryExpire(geom.Record{Rect: geom.NewRect(5, 5, 5, 6), ID: 2}, func(geom.Record) { hits++ })
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestStructureReset(t *testing.T) {
	for name, mk := range structures(geom.NewRect(0, 0, 10, 10)) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Insert(geom.Record{Rect: geom.NewRect(0, 0, 1, 1), ID: 1})
			s.QueryExpire(geom.Record{Rect: geom.NewRect(0, 0, 2, 2), ID: 2}, func(geom.Record) {})
			s.Reset()
			if s.Len() != 0 || s.Comparisons() != 0 {
				t.Fatalf("reset left len=%d cmps=%d", s.Len(), s.Comparisons())
			}
			var hits int
			s.QueryExpire(geom.Record{Rect: geom.NewRect(0, 0, 2, 2), ID: 3}, func(geom.Record) { hits++ })
			if hits != 0 {
				t.Fatal("reset structure still reports entries")
			}
		})
	}
}

func TestSliceSource(t *testing.T) {
	recs := genRects(rand.New(rand.NewSource(5)), 10, 10, 2, 0)
	src := NewSliceSource(recs)
	var n int
	for {
		_, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("drained %d of 10", n)
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("exhausted source should stay exhausted")
	}
}

func TestStripedStringer(t *testing.T) {
	s := NewStriped(0, 100, 4)
	s.Insert(geom.Record{Rect: geom.NewRect(0, 0, 100, 1), ID: 1})
	if got := fmt.Sprint(s); got == "" {
		t.Fatal("empty String()")
	}
}

func TestIdenticalRectanglesManyTies(t *testing.T) {
	// Stress y-ties: many coincident rectangles on both sides.
	var a, b []geom.Record
	for i := 0; i < 40; i++ {
		a = append(a, geom.Record{Rect: geom.NewRect(0, 0, 10, 10), ID: uint32(i)})
		b = append(b, geom.Record{Rect: geom.NewRect(5, 5, 15, 15), ID: uint32(1000 + i)})
	}
	for name, mk := range structures(geom.NewRect(0, 0, 20, 20)) {
		t.Run(name, func(t *testing.T) {
			got, _ := joinedPairs(t, a, b, mk)
			if got.Len() != 1600 || len(got) != 1600 {
				t.Fatalf("got %d pairs, %d distinct, want 1600", got.Len(), len(got))
			}
		})
	}
}

func TestJoinCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := genRects(rng, 500, 1000, 60, 0)
	b := genRects(rng, 500, 1000, 60, 10000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := JoinSlices(ctx, a, b, func() Structure { return NewForward() }, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestJoinNilEmitCountsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := genRects(rng, 400, 1000, 60, 0)
	b := genRects(rng, 400, 1000, 60, 10000)
	want := jointest.Join(a, b, nil).Len()
	st, err := JoinSlices(context.Background(), a, b,
		func() Structure { return NewForward() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != want {
		t.Fatalf("counting-only kernel found %d pairs, want %d", st.Pairs, want)
	}
}

func TestJoinNilContext(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := genRects(rng, 50, 100, 20, 0)
	b := genRects(rng, 50, 100, 20, 1000)
	st, err := JoinSlices(nil, a, b, func() Structure { return NewForward() }, nil) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != jointest.Join(a, b, nil).Len() {
		t.Fatal("nil context must behave like Background")
	}
}
