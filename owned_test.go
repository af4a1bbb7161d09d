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
						liveRelation(t, ws, "a", iv.Slice(baseA), iv.Slice(deltaA), true),
						liveRelation(t, ws, "b", iv.Slice(baseB), iv.Slice(deltaB), true)}
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
// pairs in the same order, and in the parallel engine the same classes,
// so the kernel makes the same comparisons and finds the same pairs.
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
			if resPlain.Parallel != nil && resPlain.Parallel.Comparisons != resOwned.Parallel.Comparisons {
				t.Fatalf("%v (%s): the kernel's work: %d comparisons without Owned, %d under the unbounded interval",
					alg, e.name, resPlain.Parallel.Comparisons, resOwned.Parallel.Comparisons)
			}
		}
	}
}

// TestOwnedSharesLieInsideTheWindow is the law that lets a router
// leave shards out of a windowed query: under a window the reference
// point is clipped to the window's left edge, so for every input shape,
// every algorithm on both its engines, tilings of 2, 3 and 7 from the
// planner and cuts by hand, an interval that misses the window's
// x-extent owns nothing — asked for by count, not through the
// reference — each interval's share is the reference's, and the shares
// of a tiling are the whole windowed join. The windows sit strictly
// inside the last stripe, with an edge on a cut and one float to either
// side of it, and across every cut.
func TestOwnedSharesLieInsideTheWindow(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	hand := []Coord{250, 500, 750}
	for si, sh := range jointest.Shapes {
		t.Run(sh.Name, func(t *testing.T) {
			t.Parallel() // each shape builds a workspace of its own
			in := sh.Gen(int64(11+si), u, hand)
			ws := NewWorkspace()
			ws.SetUniverse(u)
			a := liveRelation(t, ws, "a", in.A[:in.BaseA], in.A[in.BaseA:], true)
			b := liveRelation(t, ws, "b", in.B[:in.BaseB], in.B[in.BaseB:], true)
			tilings := map[string][]geom.Interval{"cuts by hand": cutAt(hand...)}
			for _, k := range []int{2, 3, 7} {
				tilings[fmt.Sprintf("plan of %d", k)] = cutAt(shard.NewPlan(u, k, in.A, in.B).Boundaries()...)
			}
			for name, ivs := range tilings {
				last := ivs[len(ivs)-1].Lo
				if len(ivs) == 1 { // the planner found nothing to cut
					last = u.XLo
				}
				wins := []Rect{
					NewRect(last+(u.XHi-last)/4, 50, last+(u.XHi-last)/2, 950), // strictly inside the last stripe
					NewRect(last, 0, u.XHi, 1000),                              // its left edge on the last cut
					NewRect(math.Nextafter32(last, u.XLo), 300, u.XHi, 700),    // one float into the stripe before
					NewRect(u.XLo, 100, math.Nextafter32(last, u.XLo), 900),    // everything but the last stripe
					NewRect(ivs[0].Hi, 0, ivs[0].Hi, 1000),                     // a segment along the first cut
					u,
				}
				for _, win := range wins {
					whole := jointest.Join(in.A, in.B, &win)
					for _, alg := range queryAlgorithms {
						for _, e := range engines(ws, alg) {
							what := fmt.Sprintf("%s, %v (%s), window %v", name, alg, e.name, win)
							sum := jointest.Bag[Pair]{}
							for _, iv := range ivs {
								got := jointest.Bag[Pair]{}
								res, err := e.ws.Query(a, b).Algorithm(alg).Parallelism(2).Partitions(5).
									Window(win).Owned(iv.Lo, iv.Hi).Emit(got.Add).Run(ctx)
								if err != nil {
									t.Fatalf("%s over %v: %v", what, iv, err)
								}
								if !iv.Loads(win) && res.Count() != 0 {
									t.Fatalf("%s: %v does not meet the window and owns %d pairs", what, iv, res.Count())
								}
								if res.Count() != got.Len() {
									t.Fatalf("%s over %v: counted %d pairs, emitted %d", what, iv, res.Count(), got.Len())
								}
								jointest.CheckJoin(t, fmt.Sprintf("%s over %v", what, iv), in.A, in.B,
									jointest.Owned(in.A, in.B, &win, iv.Lo, iv.Hi), got)
								sum.Union(got)
							}
							jointest.CheckJoin(t, what+", the shares together", in.A, in.B, whole, sum)
						}
					}
				}
			}
		})
	}
}

// TestReachingInIsTheCounterExample holds the shape named for it to its
// purpose: one record a side spanning every cut, a window strictly
// inside the last stripe — by the larger of the two left edges alone,
// their pair belongs to the first interval, which the window never
// touches; by the clipped point it belongs to the last, and the
// intervals before it own nothing. The same for the spanning record as
// a window query's answer.
func TestReachingInIsTheCounterExample(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	cuts := []Coord{250, 500, 750}
	in := jointest.ShapeNamed("reaching-in").Gen(1, u, cuts)
	win := NewRect(800, 0, 900, 1000)
	spanA, spanB := in.A[0], in.B[0]
	if !spanA.Rect.Intersects(spanB.Rect) || spanA.Rect.XLo > cuts[0] || spanA.Rect.XHi < win.XHi {
		t.Fatalf("the shape's first records %v and %v do not span the cuts and meet", spanA.Rect, spanB.Rect)
	}
	pair := Pair{Left: spanA.ID, Right: spanB.ID}
	ivs := cutAt(cuts...)
	if unclipped := max(spanA.Rect.XLo, spanB.Rect.XLo); !ivs[0].Contains(unclipped) || ivs[0].Loads(win) {
		t.Fatalf("unclipped reference point %v: want it in %v, which the window %v must miss", unclipped, ivs[0], win)
	}
	for i, iv := range ivs {
		owned := jointest.Owned(in.A, in.B, &win, iv.Lo, iv.Hi)
		records := jointest.OwnedWindow(in.A, win, iv.Lo, iv.Hi)
		if last := i == len(ivs)-1; last != (owned[pair] == 1) || last != (records[spanA] == 1) || (!last && owned.Len()+records.Len() != 0) {
			t.Fatalf("%v: the reference gives it %d pairs (the spanning pair ×%d) and %d records (the spanning record ×%d)",
				iv, owned.Len(), owned[pair], records.Len(), records[spanA])
		}
		if iv.OwnsPair(spanA.Rect.XLo, spanB.Rect.XLo, win.XLo) != (i == len(ivs)-1) ||
			iv.OwnsRecord(spanA.Rect, win.XLo) != (i == len(ivs)-1) {
			t.Fatalf("%v: geom.Interval disagrees with the reference on the spanning pair or record", iv)
		}
	}
}
