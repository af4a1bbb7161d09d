package shard

import (
	"math"
	"reflect"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
)

var universe = geom.NewRect(0, 0, 1000, 1000)

func TestParseIntervalRoundTrip(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi float64
	}{
		{":250", math.Inf(-1), 250},
		{"250:700", 250, 700},
		{"700:", 700, math.Inf(1)},
		{":", math.Inf(-1), math.Inf(1)},
		{"-10.5:0.25", -10.5, 0.25},
	}
	for _, c := range cases {
		iv, err := ParseInterval(c.in)
		if err != nil {
			t.Fatalf("ParseInterval(%q): %v", c.in, err)
		}
		if float64(iv.Lo) != c.lo || float64(iv.Hi) != c.hi {
			t.Fatalf("ParseInterval(%q) = [%v, %v), want [%v, %v)", c.in, iv.Lo, iv.Hi, c.lo, c.hi)
		}
		back, err := ParseInterval(iv.String())
		if err != nil || back != iv {
			t.Fatalf("round trip %q -> %q -> %v (err %v)", c.in, iv.String(), back, err)
		}
	}
	for _, bad := range []string{"", "250", "700:250", "250:250", "x:1"} {
		if _, err := ParseInterval(bad); err == nil {
			t.Fatalf("ParseInterval(%q) accepted", bad)
		}
	}
}

func TestIntervalOwnership(t *testing.T) {
	iv := Interval{Lo: 250, Hi: 700}
	// Loading is by overlap; record ownership by left edge; pair
	// ownership by reference point. All half-open at Hi.
	rect := func(xlo, xhi geom.Coord) geom.Rect { return geom.Rect{XLo: xlo, YLo: 0, XHi: xhi, YHi: 1} }
	if !iv.Loads(rect(100, 250)) || !iv.Loads(rect(699, 800)) || iv.Loads(rect(700, 800)) || iv.Loads(rect(0, 249)) {
		t.Fatal("Loads overlap rule wrong")
	}
	none := geom.NoWindow
	if !iv.OwnsRecord(rect(250, 300), none) || iv.OwnsRecord(rect(700, 700), none) || iv.OwnsRecord(rect(100, 600), none) {
		t.Fatal("OwnsRecord left-edge rule wrong")
	}
	if !iv.OwnsPair(100, 250, none) || !iv.OwnsPair(300, 260, none) || iv.OwnsPair(100, 700, none) || iv.OwnsPair(100, 240, none) {
		t.Fatal("OwnsPair reference-point rule wrong")
	}
	// Under a window the point is clipped to its left edge: a record or
	// pair reaching in from the left is owned where the window starts,
	// and not at all once the window starts at or past Hi.
	if !iv.OwnsRecord(rect(100, 600), 250) || !iv.OwnsRecord(rect(100, 900), 699) || iv.OwnsRecord(rect(100, 900), 700) ||
		iv.OwnsRecord(rect(100, 600), 249) || !iv.OwnsRecord(rect(300, 600), 100) {
		t.Fatal("OwnsRecord clipped rule wrong")
	}
	if !iv.OwnsPair(100, 240, 250) || iv.OwnsPair(100, 240, 700) || !iv.OwnsPair(300, 260, 100) || iv.OwnsPair(100, 240, 245) {
		t.Fatal("OwnsPair clipped rule wrong")
	}
	if !iv.Covers(rect(250, 699)) || iv.Covers(rect(250, 700)) || iv.Covers(rect(249, 300)) {
		t.Fatal("Covers containment rule wrong")
	}
	if !Everything().Unbounded() || iv.Unbounded() {
		t.Fatal("Unbounded wrong")
	}
}

// TestPlanPartitionsExactly checks the sharding invariants on skewed
// data: every record is loaded by exactly the shards its x-interval
// overlaps, each record is owned by exactly one shard (which also
// loads it), each possible reference point is owned by exactly one
// shard, and Plan.Assign agrees with per-shard Interval.Slice.
func TestPlanPartitionsExactly(t *testing.T) {
	terr := datagen.NewTerrain(5, universe, 10)
	recs := datagen.Roads(terr, 6, 4000, datagen.RoadParams{})
	for _, k := range []int{1, 2, 4, 7} {
		p := NewPlan(universe, k, recs)
		K := p.Shards()
		intervals := make([]Interval, K)
		for i := range intervals {
			intervals[i] = p.Interval(i)
		}
		if err := Validate(intervals); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		perShard, stats := p.Assign(recs)
		if stats.Input != int64(len(recs)) || stats.Local+stats.Boundary != stats.Input {
			t.Fatalf("k=%d: stats %+v inconsistent with %d records", k, stats, len(recs))
		}
		var placements int64
		for i, iv := range intervals {
			sliced := iv.Slice(recs)
			if !reflect.DeepEqual(perShard[i], sliced) && !(len(perShard[i]) == 0 && len(sliced) == 0) {
				t.Fatalf("k=%d shard %d: Assign gave %d records, Slice gave %d",
					k, i, len(perShard[i]), len(sliced))
			}
			placements += int64(len(perShard[i]))
		}
		if placements != stats.Placements {
			t.Fatalf("k=%d: %d placements, stats say %d", k, placements, stats.Placements)
		}
		for _, r := range recs {
			owners := 0
			for _, iv := range intervals {
				if iv.OwnsRecord(r.Rect, geom.NoWindow) {
					owners++
					if !iv.Loads(r.Rect) {
						t.Fatalf("k=%d: shard owns record %d without loading it", k, r.ID)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("k=%d: record %d owned by %d shards", k, r.ID, owners)
			}
		}
	}
}

func TestValidateRejectsBrokenFleets(t *testing.T) {
	inf := geom.Coord(math.Inf(1))
	ok := []Interval{{Lo: -inf, Hi: 250}, {Lo: 250, Hi: 700}, {Lo: 700, Hi: inf}}
	if err := Validate(ok); err != nil {
		t.Fatal(err)
	}
	bad := [][]Interval{
		{},
		{{Lo: 0, Hi: 250}, {Lo: 250, Hi: inf}}, // first not -Inf
		{{Lo: -inf, Hi: 250}, {Lo: 250, Hi: 700}}, // last not +Inf
		{{Lo: -inf, Hi: 250}, {Lo: 300, Hi: inf}}, // gap
		{{Lo: -inf, Hi: 250}, {Lo: 200, Hi: inf}}, // overlap
	}
	for i, ivs := range bad {
		if err := Validate(ivs); err == nil {
			t.Fatalf("case %d: broken fleet accepted", i)
		}
	}
}

func TestPlanFromBoundaries(t *testing.T) {
	p, err := PlanFromBoundaries(universe, []geom.Coord{250, 700})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", p.Shards())
	}
	if iv := p.Interval(1); iv.Lo != 250 || iv.Hi != 700 {
		t.Fatalf("Interval(1) = %v", iv)
	}
	if _, err := PlanFromBoundaries(universe, []geom.Coord{700, 250}); err == nil {
		t.Fatal("decreasing boundaries accepted")
	}
}

// FuzzParseInterval: the -stripe syntax is operator input. Arbitrary
// strings must never panic; an interval that parses is non-empty and
// comes back unchanged through String, the form the router and the
// logs print it in. Run
//
//	go test -fuzz FuzzParseInterval ./internal/shard
//
// to explore further.
func FuzzParseInterval(f *testing.F) {
	for _, s := range []string{":250", "250:700", "700:", ":", "-10.5:0.25", "", "250", "700:250", "x:1",
		"1e39:", ":-1e39", "NaN:1", "0x1p-2:1", " 1 : 2 ", "1:2:3", "-Inf:+Inf"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		iv, err := ParseInterval(s)
		if err != nil {
			return
		}
		if !(iv.Lo < iv.Hi) {
			t.Fatalf("ParseInterval(%q) = [%v, %v): empty", s, iv.Lo, iv.Hi)
		}
		back, err := ParseInterval(iv.String())
		if err != nil || back != iv {
			t.Fatalf("round trip %q -> %v -> %q -> %v (err %v)", s, iv, iv.String(), back, err)
		}
	})
}
