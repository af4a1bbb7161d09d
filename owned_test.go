package unijoin

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"unijoin/internal/core"
	"unijoin/internal/geom"
	"unijoin/internal/jointest"
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

// resident is j run the way a Catalog's workspace would run it: on the
// relations' prepared runs where the algorithm has a resident form.
func resident(j ownedJoin) ownedJoin {
	return ownedJoin{j.name + " (resident)", func(ctx context.Context, ws *Workspace, a, b *Relation, own *geom.Interval, win *Rect,
		emit func(Pair), batch func([]Pair)) (int64, error) {
		return j.run(ctx, residentView(ws), a, b, own, win, emit, batch)
	}}
}

// slabSSSJ is the partitioned SSSJ fallback, which no algorithm
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

// cutAt tiles the line at the given cuts.
func cutAt(cuts ...Coord) []geom.Interval {
	slices.Sort(cuts)
	var ivs []geom.Interval
	lo := Coord(math.Inf(-1))
	for _, c := range append(slices.Compact(cuts), Coord(math.Inf(1))) {
		ivs = append(ivs, geom.Interval{Lo: lo, Hi: c})
		lo = c
	}
	return ivs
}

// ownedSide is one shard's view of the two relations: the full ones
// when nothing was sliced, or what Interval.Slice leaves of them.
type ownedSide struct {
	ws   *Workspace
	a, b *Relation
}

// TestOwnedIntervalsTileTheJoin: for data of every kind, static
// relations and ones with a delta run on either or both sides, tilings
// from shard.NewPlan and hand-placed cuts — on a record's left edge, on
// a record's right edge, with every record centre in one stripe — one
// record on each side that spans every stripe, and records on each side
// that end, start or lie exactly on a slab cut of slab SSSJ and on the
// boundaries of the plan of three: every way of running a join — PQ and
// SSSJ in their resident form too — windowed or not, through CountOnly,
// Emit and EmitBatch, reports under each
// interval exactly the reference's share for it — the pairs whose
// reference point the interval holds, which tile the reference's join.
// That holds with the full relations under every interval and with
// relations sliced the way a shard loads them. The unbounded interval is
// the same as none (checkUnbounded) — which is all a plan of one is —
// and with no interval at all every join reports the reference's answer.
func TestOwnedIntervalsTileTheJoin(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	window := NewRect(180, 240, 620, 700)
	forms := []struct {
		name   string
		da, db int
	}{{"static", 0, 0}, {"delta left", 40, 0}, {"delta right", 0, 40}, {"delta both", 40, 30}}
	for ki, kind := range mixedKinds {
		for fi, form := range forms {
			t.Run(kind.name+"/"+form.name, func(t *testing.T) {
				t.Parallel() // each case builds workspaces of its own
				seed := int64(1000*ki + 10*fi)
				// Slab SSSJ reads the log alone, so the four forms are
				// four data sets to it: each runs one slab count. It cuts
				// the universe evenly; records sit on those cuts, and on
				// the plan of three's once it is drawn.
				slabs := []int{2, 3, 7, 4}[fi]
				var cuts []Coord
				for s, width := 1, float64(u.Width())/float64(slabs); s < slabs; s++ {
					cuts = append(cuts, u.XLo+Coord(float64(s)*width))
				}
				span := []Record{{Rect: NewRect(u.XLo, 480, u.XHi, 500)}}
				gen := func(cuts []Coord) (baseA, baseB, deltaA, deltaB []Record) {
					onA, onB := jointest.CutRecords(u, cuts)
					baseA = renumber(slices.Concat(draw(kind.shape, seed+1, 120, u, 0), span, onA), 0)
					baseB = renumber(slices.Concat(draw(kind.shape, seed+2, 100, u, 0), span, onB), 0)
					return baseA, baseB, draw(kind.shape, seed+3, form.da, u, len(baseA)), draw(kind.shape, seed+4, form.db, u, len(baseB))
				}
				draftA, draftB, _, _ := gen(cuts)
				fleet := shard.NewPlan(u, 3, draftA, draftB)
				baseA, baseB, deltaA, deltaB := gen(slices.Concat(cuts, fleet.Boundaries()))
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
				joins := []ownedJoin{slabSSSJ(slabs)}
				for _, alg := range queryAlgorithms {
					joins = append(joins, viaQuery(alg))
				}
				for _, alg := range residentAlgorithms {
					joins = append(joins, resident(viaQuery(alg)))
				}

				loC, hiC := Coord(math.Inf(1)), Coord(math.Inf(-1))
				for _, r := range slices.Concat(allA, allB) {
					c := r.Rect.XLo + (r.Rect.XHi-r.Rect.XLo)/2
					loC, hiC = min(loC, c), max(hiC, c)
				}
				tilings := map[string][]geom.Interval{
					"the fleet's plan of 3":                cutAt(fleet.Boundaries()...),
					"cuts on a left edge and a right edge": cutAt(allA[len(allA)/2].Rect.XLo, allB[len(allB)/3].Rect.XHi),
					"all centres in one stripe":            cutAt(loC, math.Nextafter32(hiC, hiC+1)),
				}
				for _, k := range []int{2, 7} {
					tilings[fmt.Sprintf("plan of %d", k)] = cutAt(shard.NewPlan(u, k, allA, allB).Boundaries()...)
				}
				// The fleet's plan once more, sliced as a fleet loads it.
				sliced := make([]ownedSide, fleet.Shards())
				for i := range sliced {
					sliced[i] = load(fleet.Interval(i))
				}
				for _, win := range []*Rect{nil, &window} {
					checkShare(ctx, t, joins, fmt.Sprintf("no interval, window %v", win), full, nil, win, allA, allB)
					for name, ivs := range tilings {
						for _, iv := range ivs {
							checkShare(ctx, t, joins, fmt.Sprintf("%s, window %v", name, win), full, &iv, win, allA, allB)
						}
					}
					for i, side := range sliced {
						iv := fleet.Interval(i)
						checkShare(ctx, t, joins, fmt.Sprintf("the sliced fleet, window %v", win), side, &iv, win, allA, allB)
					}
				}
			})
		}
	}
}

// checkShare runs every join on s under own (nil: no interval) through
// CountOnly, Emit and EmitBatch and holds each to the reference's share
// of allA ⋈ allB for that interval.
func checkShare(ctx context.Context, t *testing.T, joins []ownedJoin, what string, s ownedSide, own *geom.Interval,
	win *Rect, allA, allB []Record) {
	t.Helper()
	want := jointest.Join(allA, allB, win)
	if own != nil {
		want = jointest.Owned(allA, allB, win, own.Lo, own.Hi)
		what = fmt.Sprintf("%s, over %v", what, *own)
	}
	for _, j := range joins {
		counted, err := j.run(ctx, s.ws, s.a, s.b, own, win, nil, nil)
		if err != nil || counted != want.Len() {
			t.Fatalf("%s: %s counts %d pairs (%v), the reference's share is %d", what, j.name, counted, err, want.Len())
		}
		emitted, batched := jointest.Bag[Pair]{}, jointest.Bag[Pair]{}
		for mode, run := range map[string]func() (int64, error){
			"Emit": func() (int64, error) { return j.run(ctx, s.ws, s.a, s.b, own, win, emitted.Add, nil) },
			"EmitBatch": func() (int64, error) {
				return j.run(ctx, s.ws, s.a, s.b, own, win, nil, func(ps []Pair) { batched.Union(jointest.BagOf(ps)) })
			},
		} {
			if n, err := run(); err != nil || n != counted {
				t.Fatalf("%s: %s through %s reports %d pairs (%v), CountOnly %d", what, j.name, mode, n, err, counted)
			}
		}
		jointest.CheckJoin(t, what+": "+j.name+" through Emit", allA, allB, want, emitted)
		jointest.CheckJoin(t, what+": "+j.name+" through EmitBatch", allA, allB, want, batched)
	}
}

// checkUnbounded: the unbounded interval changes nothing — the same
// pairs in the same order, and in the parallel engine the same pairs
// emitted untested.
func checkUnbounded(ctx context.Context, t *testing.T, s ownedSide) {
	t.Helper()
	all := shard.Everything()
	for _, alg := range queryAlgorithms {
		for _, e := range engines(s.ws, alg) {
			var plain, owned []Pair
			q := func() *Query { return e.ws.Query(s.a, s.b).Algorithm(alg).Parallelism(2).Partitions(5) }
			resPlain, err := q().Emit(func(p Pair) { plain = append(plain, p) }).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			resOwned, err := q().Owned(all.Lo, all.Hi).Emit(func(p Pair) { owned = append(owned, p) }).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(plain, owned) || resPlain.Count() != resOwned.Count() {
				t.Fatalf("%v (%s): %d pairs without Owned, %d under the unbounded interval, or in another order",
					alg, e.name, len(plain), len(owned))
			}
			if resPlain.Parallel != nil && resPlain.Parallel.NoTestPairs != resOwned.Parallel.NoTestPairs {
				t.Fatalf("%v (%s): untested pairs: %d without Owned, %d under the unbounded interval",
					alg, e.name, resPlain.Parallel.NoTestPairs, resOwned.Parallel.NoTestPairs)
			}
		}
	}
}
