package main

import (
	"math/rand"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/shard"
)

// bruteJoin is the O(n·m) definition the grid join must reproduce.
func bruteJoin(left, right []geom.Record) joinRef {
	var ref joinRef
	for _, l := range left {
		for _, r := range right {
			if l.Rect.Intersects(r.Rect) {
				ref.add(l.ID, r.ID)
			}
		}
	}
	return ref
}

// latticeRecords builds rectangles whose corners all sit on a coarse
// integer lattice, so many pairs touch exactly on an edge or a corner,
// some are points or segments, and many land exactly on grid-cell
// borders — the cases where a reference-point rule double- or
// zero-counts if it is off by one comparison.
func latticeRecords(rng *rand.Rand, n int, side int) []geom.Record {
	recs := make([]geom.Record, n)
	for i := range recs {
		x, y := rng.Intn(side), rng.Intn(side)
		recs[i] = geom.Record{ID: uint32(i), Rect: geom.NewRect(
			geom.Coord(x), geom.Coord(y), geom.Coord(x+rng.Intn(4)), geom.Coord(y+rng.Intn(4)))}
	}
	return recs
}

func TestReferenceJoinMatchesBruteForce(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	terrain := datagen.NewTerrain(7, u, 8)
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name        string
		left, right []geom.Record
	}{
		{"uniform", datagen.Uniform(1, 2000, u, 25), datagen.Uniform(2, 1500, u, 25)},
		{"clustered", datagen.Roads(terrain, 3, 2000, datagen.RoadParams{MeanLen: 0.01}), datagen.Hydro(terrain, 4, 1200, datagen.HydroParams{MeanSize: 0.02})},
		{"boundary-exact", latticeRecords(rng, 1500, 40), latticeRecords(rng, 1500, 40)},
		{"one point", []geom.Record{{ID: 1, Rect: geom.NewRect(5, 5, 5, 5)}}, []geom.Record{{ID: 2, Rect: geom.NewRect(5, 5, 5, 5)}}},
		{"empty right", datagen.Uniform(1, 10, u, 25), nil},
	}
	for _, c := range cases {
		got, want := referenceJoin(c.left, c.right), bruteJoin(c.left, c.right)
		if got != want {
			t.Errorf("%s: grid join %+v, brute force %+v", c.name, got, want)
		}
		if c.name != "empty right" && want.Pairs == 0 {
			t.Errorf("%s: no pairs at all, the case tests nothing", c.name)
		}
	}
}

func TestPairMixIsOrderIndependentAndSideSensitive(t *testing.T) {
	var a, b, swapped joinRef
	a.add(1, 2)
	a.add(3, 4)
	b.add(3, 4)
	b.add(1, 2)
	swapped.add(2, 1)
	swapped.add(4, 3)
	if a != b {
		t.Errorf("checksum depends on order: %+v vs %+v", a, b)
	}
	if a.Sum == swapped.Sum {
		t.Errorf("checksum ignores which side an ID is on")
	}
}

func TestReferenceWindowCountsTouchingRecords(t *testing.T) {
	recs := []geom.Record{
		{ID: 1, Rect: geom.NewRect(0, 0, 10, 10)},   // shares the corner (10,10)
		{ID: 2, Rect: geom.NewRect(20, 12, 30, 14)}, // shares the edge x=20
		{ID: 4, Rect: geom.NewRect(12, 12, 13, 13)}, // inside
		{ID: 8, Rect: geom.NewRect(21, 21, 30, 30)}, // outside
	}
	got := referenceWindow(recs, geom.NewRect(10, 10, 20, 20))
	if want := (windowRef{Records: 3, IDSum: 7}); got != want {
		t.Errorf("window scan %+v, want %+v", got, want)
	}
}

func TestStripeOfAgreesWithPlanIntervals(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	recs := datagen.Uniform(5, 3000, u, 20)
	plan := shard.NewPlan(u, fleetShards, recs)
	bounds := plan.Boundaries()
	probe := append([]geom.Coord{-5, 0, 1000, 1e6}, bounds...)
	for _, r := range recs[:200] {
		probe = append(probe, r.Rect.XLo)
	}
	for _, x := range probe {
		s := stripeOf(bounds, x)
		if !plan.Interval(s).Contains(x) {
			t.Errorf("stripeOf(%v) = %d, but that shard's interval %v does not contain it", x, s, plan.Interval(s))
		}
	}
}

func TestPrefixTableMatchesRejoiningFromScratch(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	base := datagen.Uniform(1, 1200, u, 30)
	right := datagen.Uniform(2, 900, u, 30)
	d := &dataset{Universe: u, Left: relation{Recs: base}}
	all := appendBatches(d, 9, 6)
	batches := make([][]geom.Record, len(all))
	for k, b := range all {
		batches[k] = b[:40] // small batches keep the from-scratch joins quick
	}
	bounds := shard.NewPlan(u, fleetShards, base, right).Boundaries()
	table := newPrefixTable(base, batches, right, bounds)

	union := append([]geom.Record(nil), base...)
	for k := 0; k <= len(batches); k++ {
		if k > 0 {
			union = append(union, batches[k-1]...)
		}
		// From scratch, per stripe: brute force, owner by reference point.
		want := make([]int64, len(bounds)+1)
		for _, l := range union {
			for _, r := range right {
				if l.Rect.Intersects(r.Rect) {
					want[stripeOf(bounds, max(l.Rect.XLo, r.Rect.XLo))]++
				}
			}
		}
		var total int64
		for s, n := range want {
			total += n
			if table.counts[s][k] != n {
				t.Errorf("prefix %d stripe %d: table %d, from scratch %d", k, s, table.counts[s][k], n)
			}
		}
		if table.total(k) != total {
			t.Errorf("prefix %d: table total %d, from scratch %d", k, table.total(k), total)
		}
	}
	if table.total(len(batches)) == table.total(0) {
		t.Fatal("the batches added no pairs, the test checks nothing")
	}

	// A whole prefix inside the in-flight range explains; outside it
	// does not; shards at different prefixes explain, but not as whole.
	if ok, whole := table.explains(table.total(2), 1, 3); !ok || !whole {
		t.Errorf("prefix 2 within [1,3]: ok=%v whole=%v", ok, whole)
	}
	if ok, _ := table.explains(table.total(5), 1, 3); ok {
		t.Errorf("prefix 5 accepted for in-flight range [1,3]")
	}
	mixed := table.counts[0][1] + table.counts[1][3] + table.counts[2][2]
	if ok, whole := table.explains(mixed, 1, 3); !ok || whole {
		t.Errorf("shards at prefixes 1,3,2: ok=%v whole=%v", ok, whole)
	}
	if ok, _ := table.explains(table.total(2)+1, 2, 2); ok {
		t.Errorf("a count off by one was explained")
	}
}
