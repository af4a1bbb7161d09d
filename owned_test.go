package unijoin

import (
	"context"
	"fmt"
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

// viaCore runs one of the core entry points Query does not reach — the
// two emit sites no algorithm selection leads to.
func viaCore(name string, tweak func(*core.Options), join func(context.Context, core.Options, *Relation, *Relation) (core.Result, error)) ownedJoin {
	return ownedJoin{name, func(ctx context.Context, ws *Workspace, a, b *Relation, own *geom.Interval, win *Rect,
		emit func(Pair), batch func([]Pair)) (int64, error) {
		o := core.Options{Store: ws.store, Universe: ws.universeFor(Rect{}), Window: win, Own: own, Emit: emit, EmitBatch: batch}
		if tweak != nil {
			tweak(&o)
		}
		res, err := join(ctx, o, a, b)
		return res.Pairs, err
	}}
}

var ownedJoins = []ownedJoin{
	viaQuery(AlgSSSJ), viaQuery(AlgPBSM), viaQuery(AlgST), viaQuery(AlgPQ),
	viaQuery(AlgBFRJ), viaQuery(AlgAuto), viaQuery(AlgParallel),
	viaCore("PBSM sort-dedup", func(o *core.Options) { o.PBSMSortDedup = true },
		func(ctx context.Context, o core.Options, a, b *Relation) (core.Result, error) {
			return core.PBSM(ctx, o, a.snapshot().File, b.snapshot().File)
		}),
	viaCore("slab SSSJ", nil,
		func(ctx context.Context, o core.Options, a, b *Relation) (core.Result, error) {
			return core.SSSJPartitioned(ctx, o, a.snapshot().File, b.snapshot().File, 4)
		}),
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
// a record's right edge, with every record centre in one stripe — and
// one record on each side that spans every stripe: for every way of
// running a join, windowed or not, through CountOnly, Emit and
// EmitBatch, the per-interval pair sets are disjoint, each pair lies
// with the interval holding its reference point, their union is the
// brute-force answer, and each Count is its set's size. That holds
// with the full relations under every interval and with relations
// sliced the way a shard loads them. And the unbounded interval is the
// same as none (checkUnbounded).
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
				baseA := renumber(append(gen(seed+1, 180, u), span), 0)
				baseB := renumber(append(gen(seed+2, 140, u), span), 0)
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
					for _, tl := range tilings {
						sides := make([]ownedSide, len(tl.ivs))
						for i := range sides {
							sides[i] = full
						}
						checkTiling(ctx, t, fmt.Sprintf("%s, window %v", tl.name, win), tl.ivs, sides, win, allA, allB, want)
					}
					checkTiling(ctx, t, fmt.Sprintf("sliced %s, window %v", fleet.name, win), fleet.ivs, sliced, win, allA, allB, want)
				}
			})
		}
	}
}

// checkTiling runs every join under every interval of a tiling —
// interval i on sides[i] — and holds the results to the tiling
// contract against want.
func checkTiling(ctx context.Context, t *testing.T, what string, ivs []geom.Interval, sides []ownedSide,
	win *Rect, allA, allB []Record, want map[Pair]bool) {
	t.Helper()
	for _, j := range ownedJoins {
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
