package unijoin

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"unijoin/internal/ingest"
	"unijoin/internal/jointest"
	"unijoin/internal/tiger"
)

// TestStripeBoundariesIndependentOfWhoWarmedTheSample: the x-center
// sample is taken at load and carried by appends, so the stripe cuts a
// planner exports are the same whether it asked before or after the
// relations' first AlgParallel query — which reads the same sample —
// and stay the same through appends on both histories.
func TestStripeBoundariesIndependentOfWhoWarmedTheSample(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ctx := context.Background()
	build := func() (*Catalog, *Relation, *Relation) {
		c := NewCatalog()
		c.Workspace().SetUniverse(u)
		a, err := c.Load("a", demoRecords(11, 9000, u), false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Load("b", demoRecords(12, 5000, u), true)
		if err != nil {
			t.Fatal(err)
		}
		return c, a, b
	}
	join := func(c *Catalog, a, b *Relation) {
		t.Helper()
		if _, err := c.Workspace().Query(a, b).Algorithm(AlgParallel).CountOnly().Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cuts := func(c *Catalog) []Coord {
		t.Helper()
		got, err := c.StripeBoundaries(6, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	planFirst, pa, pb := build()
	joinFirst, ja, jb := build()
	want := cuts(planFirst)
	join(planFirst, pa, pb)
	join(joinFirst, ja, jb)
	if got := cuts(joinFirst); !reflect.DeepEqual(got, want) {
		t.Fatalf("stripe cuts depend on who warmed the sample:\nplanner first %v\njoin first    %v", want, got)
	}
	for round := 0; round < 3; round++ {
		for _, rel := range []*Relation{pa, ja} {
			if _, err := rel.Append(appendDelta(int64(20+round), 700, 100000+700*round, u)); err != nil {
				t.Fatal(err)
			}
		}
		// Opposite orders again on the new epoch.
		want = cuts(planFirst)
		join(planFirst, pa, pb)
		join(joinFirst, ja, jb)
		if got := cuts(joinFirst); !reflect.DeepEqual(got, want) {
			t.Fatalf("after append %d the two histories cut differently:\nplanner first %v\njoin first    %v", round, want, got)
		}
	}
}

// TestRelationIsNeverCold: a relation's prepared run and x-center
// sample are built when it is loaded, so on a workspace of its own and
// on a catalog alike the first join on the in-memory engine, the first
// window query and the first stripe planning each read no page and
// build nothing. Only the first join on an appended epoch pays, a
// merge on the appended side.
func TestRelationIsNeverCold(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	fresh := func(resident bool) (*Workspace, *Catalog, *Relation, *Relation) {
		t.Helper()
		ws := NewWorkspace()
		ws.SetUniverse(u)
		var cat *Catalog
		var a, b *Relation
		var err error
		if resident {
			cat = NewCatalogOn(ws)
			if a, err = cat.Load("a", demoRecords(41, 3000, u), false); err == nil {
				b, err = cat.Load("b", demoRecords(42, 2000, u), true)
			}
		} else if a, err = ws.AddNamedRelation("a", demoRecords(41, 3000, u)); err == nil {
			if b, err = ws.AddNamedRelation("b", demoRecords(42, 2000, u)); err == nil {
				err = b.BuildIndex()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return ws, cat, a, b
	}
	join := func(ws *Workspace, a, b *Relation, alg Algorithm, want [2]ingest.Build) int64 {
		t.Helper()
		res, err := ws.Query(a, b).Algorithm(alg).CountOnly().Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prepared != want || (res.PrepareWall > 0) != (want != [2]ingest.Build{}) {
			t.Fatalf("%v join: Prepared %q, PrepareWall %v; want %q", alg, res.Prepared, res.PrepareWall, want)
		}
		return res.Count()
	}
	none := [2]ingest.Build{}
	for _, resident := range []bool{false, true} {
		firsts := map[string]func(ws *Workspace, cat *Catalog, a, b *Relation){
			"parallel join": func(ws *Workspace, _ *Catalog, a, b *Relation) { join(ws, a, b, AlgParallel, none) },
			"window query": func(_ *Workspace, _ *Catalog, a, _ *Relation) {
				if n, err := a.WindowQuery(ctx, NewRect(100, 100, 300, 300), nil); err != nil || n == 0 {
					t.Fatalf("window query: %d records, %v", n, err)
				}
			},
			"stripe boundaries": func(_ *Workspace, cat *Catalog, a, _ *Relation) {
				if _, err := a.StripeBoundaries(4); err != nil {
					t.Fatal(err)
				}
				if cat != nil {
					if _, err := cat.StripeBoundaries(4, "a", "b"); err != nil {
						t.Fatal(err)
					}
				}
			},
		}
		if resident {
			firsts["PQ join"] = func(ws *Workspace, _ *Catalog, a, b *Relation) { join(ws, a, b, AlgPQ, none) }
		}
		for what, first := range firsts {
			ws, cat, a, b := fresh(resident)
			before := ws.Store().Counters()
			first(ws, cat, a, b)
			if io := ws.Store().Counters().Sub(before); io.Total() != 0 {
				t.Fatalf("resident=%v: the first %s on a loaded relation made %d page accesses", resident, what, io.Total())
			}
		}

		ws, _, a, b := fresh(resident)
		pairs := join(ws, a, b, AlgParallel, none)
		if _, err := b.Append(appendDelta(43, 100, 1<<20, u)); err != nil {
			t.Fatal(err)
		}
		before := ws.Store().Counters()
		if join(ws, a, b, AlgParallel, [2]ingest.Build{ingest.BuildNone, ingest.BuildMerge}) < pairs {
			t.Fatal("the join after the append lost pairs")
		}
		join(ws, a, b, AlgParallel, none)
		if io := ws.Store().Counters().Sub(before); io.Total() != 0 {
			t.Fatalf("resident=%v: the joins after an append made %d page accesses", resident, io.Total())
		}
	}
}

// TestConcurrentJoinsShareOnePreparedRun pins two appended relations
// from eight goroutines at once. Exactly one query per relation merges
// the prepared run, everyone else finds it merged, all emit the
// identical pair sequence — and under -race this is the proof that the
// engine's "inputs are not modified" contract holds for memory that is
// shared between queries.
func TestConcurrentJoinsShareOnePreparedRun(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 61, 6000, 4000)
	u := NewRect(0, 0, 1000, 1000)
	for i, rel := range []*Relation{a, b} {
		if _, err := rel.Append(appendDelta(int64(62+i), 300, 1<<20, u)); err != nil {
			t.Fatal(err)
		}
	}
	const queries = 8
	results := make([]*Results, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := ws.Query(a, b).Algorithm(AlgParallel).Parallelism(1 + i%3).Partitions(6).Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var merges [2]int
	for i, res := range results {
		for side, build := range res.Prepared {
			if build == ingest.BuildMerge {
				merges[side]++
			}
		}
		if (res.Prepared != [2]ingest.Build{}) != (res.PrepareWall > 0) {
			t.Fatalf("query %d: Prepared %q but PrepareWall %v", i, res.Prepared, res.PrepareWall)
		}
		if res.Count() == 0 || !slices.Equal(res.PairSlice(), results[0].PairSlice()) {
			t.Fatalf("query %d: %d pairs, differing from query 0's %d", i, res.Count(), results[0].Count())
		}
	}
	if merges != [2]int{1, 1} {
		t.Fatalf("the appended runs were merged %v times (left, right), want exactly once each", merges)
	}
	// The SSSJ answer on the simulated disk is the outside reference.
	ref, err := ws.Query(a, b).Algorithm(AlgSSSJ).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Count() != results[0].Count() {
		t.Fatalf("parallel %d pairs, SSSJ %d", results[0].Count(), ref.Count())
	}
}

// TestResultsReportPinnedInputs: Left and Right describe the epochs the
// answer was computed on, even when the relation moved on mid-query.
func TestResultsReportPinnedInputs(t *testing.T) {
	ws, a, b, _, rb := demoWorkspace(t)
	u := NewRect(0, 0, 1000, 1000)
	for _, alg := range []Algorithm{AlgPQ, AlgParallel} {
		before, epoch := a.Pin().Len(), a.Pin().Epoch()
		appended := false
		res, err := ws.Query(a, b).Algorithm(alg).EmitBatch(func([]Pair) {
			if !appended { // lands after the pin, before Run returns
				appended = true
				if _, err := a.Append(appendDelta(5, 50, 50000+int(before), u)); err != nil {
					t.Error(err)
				}
			}
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !appended || a.Pin().Len() != before+50 {
			t.Fatalf("%v: the append did not land mid-query (len %d)", alg, a.Pin().Len())
		}
		if res.Left.Len() != before || res.Left.Epoch() != epoch || res.Right.Len() != int64(len(rb)) {
			t.Fatalf("%v: Results describe left %d@%d right %d, pinned were %d@%d and %d",
				alg, res.Left.Len(), res.Left.Epoch(), res.Right.Len(), before, epoch, len(rb))
		}
	}
}

// TestWindowedResidentJoinReadsTheSlab: a resident join under a window
// hands the engine the window's y-slab of each prepared run, not the
// run. On the load benchmark's NJ data (103,610 roads × 12,713 hydro
// records) a window of 0.5 % of the region a side, centred on a record
// as the benchmark's are, leaves under 5 % of either run to measure,
// sample and distribute — a tenth where it lands in the y-band of the
// densest clusters, which a quarter of these windows do — and the pairs
// are the unwindowed join's, filtered: both records intersect the
// window.
func TestWindowedResidentJoinReadsTheSlab(t *testing.T) {
	ctx := context.Background()
	roads, hydro := tiger.Config{Scale: 0.25, Seed: 1997}.Generate(tiger.NJ)
	region := tiger.NJ.Region
	ws := NewWorkspace()
	ws.SetUniverse(region)
	cat := NewCatalogOn(ws)
	a, err := cat.Load("roads", roads, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cat.Load("hydro", hydro, true)
	if err != nil {
		t.Fatal(err)
	}
	rectOf := func(recs []Record) map[ID]Rect {
		m := make(map[ID]Rect, len(recs))
		for _, r := range recs {
			m[r.ID] = r.Rect
		}
		return m
	}
	rectA, rectB := rectOf(roads), rectOf(hydro)
	if len(rectA) != len(roads) || len(rectB) != len(hydro) {
		t.Fatal("the filter below looks rectangles up by ID: IDs must be unique")
	}
	var all []Pair
	if _, err := ws.Query(a, b).Emit(func(p Pair) { all = append(all, p) }).Run(ctx); err != nil {
		t.Fatal(err)
	}

	hw, hh := region.Width()*0.005/2, region.Height()*0.005/2
	nonEmpty, slabs, under5 := 0, 0, 0
	for i := 0; i < len(hydro); i += len(hydro) / 16 {
		c := hydro[i].Rect.Center()
		win := NewRect(c.X-hw, c.Y-hh, c.X+hw, c.Y+hh)
		for side, v := range map[string]*ingest.Version{"roads": a.snapshot(), "hydro": b.snapshot()} {
			slab, _ := engineInput(v, &win)
			if int64(len(slab))*8 >= v.N {
				t.Fatalf("window %v: the engine is handed %d of the %d %s records", win, len(slab), v.N, side)
			}
			if slabs++; int64(len(slab))*20 < v.N {
				under5++
			}
		}
		want := jointest.Bag[Pair]{}
		for _, p := range all {
			if rectA[p.Left].Intersects(win) && rectB[p.Right].Intersects(win) {
				want.Add(p)
			}
		}
		got := jointest.Bag[Pair]{}
		res, err := ws.Query(a, b).Window(win).Emit(got.Add).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		jointest.CheckJoin(t, fmt.Sprintf("resident PQ under window %v", win), roads, hydro, want, got)
		if res.Parallel == nil || res.IO.Total() != 0 {
			t.Fatalf("window %v: the join ran on the simulator (%d page accesses)", win, res.IO.Total())
		}
		if want.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d of the windows hold a pair: the comparison says little", nonEmpty)
	}
	if under5*4 < slabs*3 {
		t.Fatalf("%d of %d slabs hold under 5 %% of their run, want three in four", under5, slabs)
	}
}
