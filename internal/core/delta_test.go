package core

import (
	"slices"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/jointest"
)

// deltaRun sorts recs into the resident form ingest keeps a delta in.
func deltaRun(recs []geom.Record) geom.Run {
	run := geom.Run{Recs: slices.Clone(recs)}
	slices.SortFunc(run.Recs, geom.ByLowerY)
	for _, r := range run.Recs {
		run.MaxH = max(run.MaxH, geom.YExtent(r.Rect))
	}
	return run
}

// TestTreePlusRunInputs joins inputs that have no file at all — a
// packed tree over the first records and a run over the rest — and
// holds PQ, the planner and the two tree traversals to brute force
// over the whole sets. The run-side records partly lie outside the
// trees' bounding rectangles, which is what scanner restriction and
// the planner's histograms must not overlook.
func TestTreePlusRunInputs(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	wide := geom.NewRect(0, 0, 1400, 1400)
	baseA, baseB := datagen.Uniform(1, 900, u, 30), datagen.Uniform(2, 700, u, 30)
	e := buildEnv(t, wide, baseA, baseB)
	tail := func(seed int64, n, from int) []geom.Record {
		recs := datagen.Uniform(seed, n, geom.NewRect(900, 900, 1400, 1400), 60)
		for i := range recs {
			recs[i].ID = uint32(from + i)
		}
		return recs
	}
	tailA, tailB := tail(3, 250, len(baseA)), tail(4, 200, len(baseB))
	a := Input{Tree: e.treeA, Delta: deltaRun(tailA)}
	b := Input{Tree: e.treeB, Delta: deltaRun(tailB)}
	allA, allB := append(slices.Clone(baseA), tailA...), append(slices.Clone(baseB), tailB...)
	want := jointest.Join(allA, allB, nil)
	if plain := jointest.Join(baseA, baseB, nil); plain.Len() == want.Len() {
		t.Fatal("the runs contribute no pair; the test would prove nothing")
	}

	joins := map[string]func(Options) (Result, error){
		"PQ":   func(o Options) (Result, error) { return PQ(bg, o, a, b) },
		"ST":   func(o Options) (Result, error) { return Indexed(bg, o, ST, a, b) },
		"BFRJ": func(o Options) (Result, error) { return Indexed(bg, o, BFRJ, a, b) },
		"auto": func(o Options) (Result, error) {
			_, res, err := Planner{Machine: iosim.Machine3}.Join(bg, o, a, b)
			return res, err
		},
		"restricted": func(o Options) (Result, error) {
			o.RestrictScanners = true
			return PQ(bg, o, a, b)
		},
	}
	for name, join := range joins {
		got, _ := collect(t, join, e.options())
		jointest.CheckJoin(t, name, allA, allB, want, got)
	}

	// The traversals' reports are the sum of their three parts.
	bases, err := ST(bg, e.options(), e.treeA, e.treeB)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Indexed(bg, e.options(), ST, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Algorithm != "ST" || whole.Pairs != want.Len() || whole.PageRequests <= bases.PageRequests {
		t.Fatalf("Indexed(ST) reports %q, %d pairs, %d page requests; the bases alone take %d requests for %d pairs",
			whole.Algorithm, whole.Pairs, whole.PageRequests, bases.PageRequests, bases.Pairs)
	}
	// No run, no remainder: exactly the traversal.
	plain, err := Indexed(bg, e.options(), ST, TreeInput(e.treeA), TreeInput(e.treeB))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Pairs != bases.Pairs || plain.PageRequests != bases.PageRequests || plain.IO != bases.IO {
		t.Fatalf("Indexed(ST) without runs: %v, ST: %v", plain, bases)
	}
}
