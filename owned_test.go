package unijoin

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"unijoin/internal/core"
	"unijoin/internal/geom"
	"unijoin/internal/shard"
)

// Query.Owned is what makes a fleet of stripe shards exact: each shard
// reports the pairs whose reference point its interval contains, and
// nothing above the join kernels filters or re-counts. The tests here
// hold every place a kernel reports a pair to that contract.

// ownedJoin is one way of running a join under an ownership interval
// (nil: none): it reports the pair count and sends the pairs to emit or
// to batch, or nowhere when both are nil.
type ownedJoin struct {
	name string
	run  func(ctx context.Context, ws *Workspace, a, b *Relation, own *geom.Interval, win *Rect,
		emit func(Pair), batch func([]Pair)) (int64, error)
}

// viaQuery runs alg through the public Query API.
func viaQuery(alg Algorithm) ownedJoin {
	return ownedJoin{alg.String(), func(ctx context.Context, ws *Workspace, a, b *Relation, own *geom.Interval, win *Rect,
		emit func(Pair), batch func([]Pair)) (int64, error) {
		q := ws.Query(a, b).Algorithm(alg).Parallelism(2).Partitions(5)
		if own != nil {
			q.Owned(own.Lo, own.Hi)
		}
		if win != nil {
			q.Window(*win)
		}
		switch {
		case emit != nil:
			q.Emit(emit)
		case batch != nil:
			q.EmitBatch(batch)
		default:
			q.CountOnly()
		}
		res, err := q.Run(ctx)
		if err != nil {
			return 0, err
		}
		return res.Count(), nil
	}}
}

// slabSSSJ runs core.SSSJPartitioned, the one emit site no algorithm
// selection leads to, over the given number of slabs. Its slabs are
// ownership intervals of their own, intersected with the caller's.
func slabSSSJ(slabs int) ownedJoin {
	return ownedJoin{fmt.Sprintf("slab SSSJ/%d", slabs), func(ctx context.Context, ws *Workspace, a, b *Relation, own *geom.Interval, win *Rect,
		emit func(Pair), batch func([]Pair)) (int64, error) {
		o := core.Options{Store: ws.store, Universe: ws.universeFor(Rect{}), Window: win, Own: own, Emit: emit, EmitBatch: batch}
		res, err := core.SSSJPartitioned(ctx, o, a.snapshot().File, b.snapshot().File, slabs)
		return res.Pairs, err
	}}
}

var ownedJoins = []ownedJoin{
	viaQuery(AlgSSSJ), viaQuery(AlgPBSM), viaQuery(AlgST), viaQuery(AlgPQ),
	viaQuery(AlgBFRJ), viaQuery(AlgAuto), viaQuery(AlgParallel),
}

// onSlabCuts returns records that end, and records that start, exactly
// on each cut of the 2-, 3- and 7-slab partitions of u — and one float
// to either side of it, so that one of the three sits on the cut
// however core.SSSJPartitioned rounds it. All share a y-band, so an
// ending record and a starting record of one cut meet in the line
// x = cut: a pair whose reference point is the boundary itself.
func onSlabCuts(u Rect) (ending, starting []Record) {
	for _, slabs := range []int{2, 3, 7} {
		width := float64(u.Width()) / float64(slabs)
		for s := 1; s < slabs; s++ {
			cut := u.XLo + Coord(float64(s)*width)
			for _, x := range []Coord{math.Nextafter32(cut, u.XLo), cut, math.Nextafter32(cut, u.XHi)} {
				ending = append(ending, Record{Rect: NewRect(x-25, 300, x, 330)})
				starting = append(starting, Record{Rect: NewRect(x, 310, x+25, 340)})
			}
		}
	}
	return ending, starting
}

// tiling is a named set of intervals that tile the line.
type tiling struct {
	name string
	ivs  []geom.Interval
}

// cutAt tiles the line at the given cuts (sorted here, repeats
// dropped).
func cutAt(name string, cuts ...Coord) tiling {
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	tl := tiling{name: name}
	lo := Coord(math.Inf(-1))
	for _, c := range cuts {
		tl.ivs = append(tl.ivs, geom.Interval{Lo: lo, Hi: c})
		lo = c
	}
	tl.ivs = append(tl.ivs, geom.Interval{Lo: lo, Hi: Coord(math.Inf(1))})
	return tl
}

// ownedSide is one shard's view of the two relations: the full ones
// when nothing was sliced, or what Interval.Slice leaves of them.
type ownedSide struct {
	ws   *Workspace
	a, b *Relation
}

// TestOwnedIntervalsTileTheJoin: for data of every shape, static
// relations and ones with a delta run on either or both sides, tilings
// from shard.NewPlan and hand-placed cuts — on a record's left edge, on
// a record's right edge, with every record centre in one stripe — one
// record on each side that spans every stripe, and records on each side
// that end or start exactly on a slab cut of slab SSSJ: for every way of
// running a join, windowed or not, through CountOnly, Emit and
// EmitBatch, the per-interval pair sets are disjoint, each pair lies
// with the interval holding its reference point, their union is the
// brute-force answer, and each Count is its set's size. That holds
// with the full relations under every interval and with relations
// sliced the way a shard loads them. The unbounded interval is the
// same as none (checkUnbounded), and with no interval at all every join
// reports the brute-force answer (checkUnowned).
func TestOwnedIntervalsTileTheJoin(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	window := NewRect(180, 240, 620, 700)
	forms := []struct {
		name   string
		da, db int
	}{{"static", 0, 0}, {"delta left", 40, 0}, {"delta right", 0, 40}, {"delta both", 40, 30}}
	for ki, kind := range []string{"random", "clustered", "tall", "zero-extent", "duplicates"} {
		gen := mixedData[kind]
		for fi, form := range forms {
			t.Run(kind+"/"+form.name, func(t *testing.T) {
				seed := int64(1000*ki + 10*fi)
				span := Record{Rect: NewRect(u.XLo, 480, u.XHi, 500)}
				ending, starting := onSlabCuts(u)
				baseA := renumber(slices.Concat(gen(seed+1, 180, u), []Record{span}, ending[:len(ending)/2], starting[len(starting)/2:]), 0)
				baseB := renumber(slices.Concat(gen(seed+2, 140, u), []Record{span}, starting[:len(starting)/2], ending[len(ending)/2:]), 0)
				deltaA := renumber(gen(seed+3, form.da, u), len(baseA))
				deltaB := renumber(gen(seed+4, form.db, u), len(baseB))
				allA, allB := slices.Concat(baseA, deltaA), slices.Concat(baseB, deltaB)

				load := func(iv geom.Interval) ownedSide {
					ws := NewWorkspace()
					ws.SetUniverse(u)
					return ownedSide{ws,
						liveRelation(t, ws, "a", iv.Slice(baseA), iv.Slice(deltaA)),
						liveRelation(t, ws, "b", iv.Slice(baseB), iv.Slice(deltaB))}
				}
				full := load(shard.Everything())
				checkUnbounded(ctx, t, full)
				// Slab SSSJ reads the log alone, so the four forms are
				// four data sets to it: each runs one slab count.
				joins := append(slices.Clone(ownedJoins), slabSSSJ([]int{2, 3, 7, 4}[fi%4]))

				var tilings []tiling
				for _, k := range []int{1, 2, 3, 7} {
					plan := shard.NewPlan(u, k, allA, allB)
					tl := tiling{name: fmt.Sprintf("plan of %d", k)}
					for i := 0; i < plan.Shards(); i++ {
						tl.ivs = append(tl.ivs, plan.Interval(i))
					}
					tilings = append(tilings, tl)
				}
				loC, hiC := Coord(math.Inf(1)), Coord(math.Inf(-1))
				for _, r := range slices.Concat(allA, allB) {
					c := r.Rect.XLo + (r.Rect.XHi-r.Rect.XLo)/2
					loC, hiC = min(loC, c), max(hiC, c)
				}
				tilings = append(tilings,
					cutAt("cuts on a left edge and a right edge", allA[len(allA)/2].Rect.XLo, allB[len(allB)/3].Rect.XHi),
					cutAt("all centres in one stripe", loC, math.Nextafter32(hiC, hiC+1)))

				// The plan of 3 once more, sliced as a fleet loads it.
				fleet := tilings[2]
				sliced := make([]ownedSide, len(fleet.ivs))
				for i, iv := range fleet.ivs {
					sliced[i] = load(iv)
				}
				for _, win := range []*Rect{nil, &window} {
					want := bruteWindow(allA, allB, win)
					checkUnowned(ctx, t, joins, full, win, want)
					for _, tl := range tilings {
						sides := make([]ownedSide, len(tl.ivs))
						for i := range sides {
							sides[i] = full
						}
						checkTiling(ctx, t, joins, fmt.Sprintf("%s, window %v", tl.name, win), tl.ivs, sides, win, allA, allB, want)
					}
					checkTiling(ctx, t, joins, fmt.Sprintf("sliced %s, window %v", fleet.name, win), fleet.ivs, sliced, win, allA, allB, want)
				}
			})
		}
	}
}

// checkTiling runs every join under every interval of a tiling —
// interval i on sides[i] — and holds the results to the tiling
// contract against want.
func checkTiling(ctx context.Context, t *testing.T, joins []ownedJoin, what string, ivs []geom.Interval, sides []ownedSide,
	win *Rect, allA, allB []Record, want map[Pair]bool) {
	t.Helper()
	for _, j := range joins {
		var counted int64
		owner := [2]map[Pair]int{{}, {}} // by Emit, by EmitBatch
		for i, iv := range ivs {
			s := sides[i]
			n, err := j.run(ctx, s.ws, s.a, s.b, &iv, win, nil, nil)
			if err != nil {
				t.Fatalf("%s: %s over %v: %v", what, j.name, iv, err)
			}
			counted += n
			var got [2][]Pair
			emit := func(p Pair) { got[0] = append(got[0], p) }
			batch := func(ps []Pair) { got[1] = append(got[1], ps...) }
			for mode, cb := range [2]struct {
				emit  func(Pair)
				batch func([]Pair)
			}{{emit, nil}, {nil, batch}} {
				m, err := j.run(ctx, s.ws, s.a, s.b, &iv, win, cb.emit, cb.batch)
				if err != nil {
					t.Fatalf("%s: %s over %v: %v", what, j.name, iv, err)
				}
				if m != n || int64(len(got[mode])) != n {
					t.Fatalf("%s: %s over %v: CountOnly says %d, emit mode %d says %d and delivered %d",
						what, j.name, iv, n, mode, m, len(got[mode]))
				}
				for _, p := range got[mode] {
					if prev, dup := owner[mode][p]; dup {
						t.Fatalf("%s: %s: pair %v reported under %v and again under %v", what, j.name, p, ivs[prev], iv)
					}
					owner[mode][p] = i
					// IDs are positions in allA and allB.
					if !want[p] || !iv.OwnsPair(allA[p.Left].Rect.XLo, allB[p.Right].Rect.XLo) {
						t.Fatalf("%s: %s over %v: pair %v is not this interval's to report", what, j.name, iv, p)
					}
				}
			}
		}
		if counted != int64(len(want)) || len(owner[0]) != len(want) || len(owner[1]) != len(want) {
			t.Fatalf("%s: %s: intervals count %d pairs and deliver %d and %d, brute force finds %d",
				what, j.name, counted, len(owner[0]), len(owner[1]), len(want))
		}
	}
}

// checkUnowned: with no interval every join reports exactly want.
func checkUnowned(ctx context.Context, t *testing.T, joins []ownedJoin, s ownedSide, win *Rect, want map[Pair]bool) {
	t.Helper()
	for _, j := range joins {
		got := map[Pair]bool{}
		n, err := j.run(ctx, s.ws, s.a, s.b, nil, win, func(p Pair) { got[p] = true }, nil)
		if err != nil {
			t.Fatalf("%s, window %v: %v", j.name, win, err)
		}
		if n != int64(len(want)) || !maps.Equal(got, want) {
			t.Fatalf("%s, window %v: counts %d pairs and delivers %d distinct, brute force finds %d",
				j.name, win, n, len(got), len(want))
		}
	}
}

// checkUnbounded: the unbounded interval changes nothing — the same
// pairs in the same order, and in the parallel engine the same pairs
// emitted untested.
func checkUnbounded(ctx context.Context, t *testing.T, s ownedSide) {
	t.Helper()
	all := shard.Everything()
	for _, alg := range queryAlgorithms {
		var plain, owned []Pair
		q := func() *Query { return s.ws.Query(s.a, s.b).Algorithm(alg).Parallelism(2).Partitions(5) }
		resPlain, err := q().Emit(func(p Pair) { plain = append(plain, p) }).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resOwned, err := q().Owned(all.Lo, all.Hi).Emit(func(p Pair) { owned = append(owned, p) }).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plain, owned) || resPlain.Count() != resOwned.Count() {
			t.Fatalf("%v: %d pairs without Owned, %d under the unbounded interval, or in another order",
				alg, len(plain), len(owned))
		}
		if alg == AlgParallel && resPlain.Parallel.NoTestPairs != resOwned.Parallel.NoTestPairs {
			t.Fatalf("untested pairs: %d without Owned, %d under the unbounded interval",
				resPlain.Parallel.NoTestPairs, resOwned.Parallel.NoTestPairs)
		}
	}
}
