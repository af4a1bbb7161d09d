package unijoin

import (
	"context"
	"sort"
	"testing"

	"unijoin/internal/datagen"
)

func demoRecords(seed int64, n int, u Rect) []Record {
	return datagen.Uniform(seed, n, u, 40)
}

func demoWorkspace(t *testing.T) (*Workspace, *Relation, *Relation, []Record, []Record) {
	t.Helper()
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	ra := demoRecords(1, 700, u)
	rb := demoRecords(2, 500, u)
	a, err := ws.AddNamedRelation("A", ra)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.AddNamedRelation("B", rb)
	if err != nil {
		t.Fatal(err)
	}
	return ws, a, b, ra, rb
}

func brute(a, b []Record) map[Pair]bool {
	out := map[Pair]bool{}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Rect.Intersects(rb.Rect) {
				out[Pair{Left: ra.ID, Right: rb.ID}] = true
			}
		}
	}
	return out
}

func TestWorkspaceJoinAllAlgorithms(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	want := brute(ra, rb)
	for _, alg := range []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM, AlgST, AlgAuto, AlgBFRJ} {
		t.Run(alg.String(), func(t *testing.T) {
			got := map[Pair]bool{}
			res, err := ws.Query(a, b).Algorithm(alg).Emit(func(p Pair) { got[p] = true }).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || res.Count() != int64(len(want)) {
				t.Fatalf("%v: %d pairs, want %d", alg, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%v: missing %v", alg, p)
				}
			}
			if alg == AlgAuto && res.Decision == nil {
				t.Fatal("auto join must report its decision")
			}
		})
	}
}

func TestWorkspaceSTRequiresIndexes(t *testing.T) {
	ws, a, b, _, _ := demoWorkspace(t)
	if _, err := ws.Query(a, b).Algorithm(AlgST).CountOnly().Run(context.Background()); err == nil {
		t.Fatal("ST without indexes must error")
	}
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Query(a, b).Algorithm(AlgST).CountOnly().Run(context.Background()); err == nil {
		t.Fatal("ST with one index must error")
	}
}

func TestWorkspacePQWorksUnindexed(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	res, err := ws.Query(a, b).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != int64(len(brute(ra, rb))) {
		t.Fatalf("pairs = %d", res.Count())
	}
	// Index one side only: the unified join must still work.
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res2, err := ws.Query(a, b).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count() != res.Count() {
		t.Fatalf("mixed-input PQ disagrees: %d vs %d", res2.Count(), res.Count())
	}
	if res2.PageRequests == 0 {
		t.Fatal("indexed side should be read through the scanner")
	}
}

func TestRelationAccessors(t *testing.T) {
	ws, a, _, ra, _ := demoWorkspace(t)
	if a.Name() != "A" || a.Pin().Len() != int64(len(ra)) {
		t.Fatalf("accessors: %s %d", a.Name(), a.Pin().Len())
	}
	if a.Pin().Indexed() || a.Pin().IndexBytes() != 0 || a.Pin().IndexNodes() != 0 {
		t.Fatal("relation should start unindexed")
	}
	if a.Pin().DataBytes() != int64(len(ra)*20) {
		t.Fatalf("data bytes = %d", a.Pin().DataBytes())
	}
	if !a.Pin().MBR().Valid() {
		t.Fatal("MBR invalid")
	}
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if !a.Pin().Indexed() || a.Pin().IndexBytes() == 0 || a.Pin().IndexNodes() == 0 {
		t.Fatal("index accessors broken")
	}
	_ = ws
}

func TestWorkspaceMultiwayJoin(t *testing.T) {
	u := NewRect(0, 0, 300, 300)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	ra := demoRecords(10, 150, u)
	rb := demoRecords(11, 150, u)
	rc := demoRecords(12, 150, u)
	a, _ := ws.AddRelation(ra)
	b, _ := ws.AddRelation(rb)
	c, _ := ws.AddRelation(rc)

	want := 0
	for _, x := range ra {
		for _, y := range rb {
			in, ok := x.Rect.Intersection(y.Rect)
			if !ok {
				continue
			}
			for _, z := range rc {
				if in.Intersects(z.Rect) {
					want++
				}
			}
		}
	}
	var got int
	res, err := ws.MultiwayJoin(context.Background(), []*Relation{a, b, c}, func(ids []ID) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	if got != want || res.Tuples != int64(want) {
		t.Fatalf("triples = %d, want %d", got, want)
	}
	if _, err := ws.MultiwayJoin(context.Background(), []*Relation{a}, nil); err == nil {
		t.Fatal("single relation must error")
	}
}

func TestWorkspacePlan(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	big, _ := ws.AddRelation(demoRecords(20, 8000, u))
	small, _ := ws.AddRelation(demoRecords(21, 150, NewRect(0, 0, 90, 90)))
	if err := big.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	d, err := ws.Plan(context.Background(), Machine1, big, small)
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseIndexA {
		t.Fatalf("selective plan should use the big index: %v", d)
	}
}

func TestWindowOption(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	w := NewRect(0, 0, 200, 200)
	want := 0
	for _, x := range ra {
		if !x.Rect.Intersects(w) {
			continue
		}
		for _, y := range rb {
			if y.Rect.Intersects(w) && x.Rect.Intersects(y.Rect) {
				want++
			}
		}
	}
	res, err := ws.Query(a, b).Window(w).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != int64(want) {
		t.Fatalf("windowed pairs = %d, want %d", res.Count(), want)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	names := map[Algorithm]string{
		AlgPQ: "PQ", AlgSSSJ: "SSSJ", AlgPBSM: "PBSM", AlgST: "ST",
		AlgAuto: "auto", AlgBFRJ: "BFRJ",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Fatalf("%d: %s != %s", alg, alg.String(), want)
		}
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm should still format")
	}
	if _, err := demoWorkspaceJoinUnknown(); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func demoWorkspaceJoinUnknown() (*Results, error) {
	ws := NewWorkspace()
	a, _ := ws.AddRelation([]Record{{Rect: NewRect(0, 0, 1, 1), ID: 1}})
	b, _ := ws.AddRelation([]Record{{Rect: NewRect(0, 0, 1, 1), ID: 2}})
	return ws.Query(a, b).Algorithm(Algorithm(99)).CountOnly().Run(context.Background())
}

func TestCostReportsOrdering(t *testing.T) {
	ws, a, b, _, _ := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := ws.Query(a, b).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for _, m := range Machines {
		times = append(times, res.ObservedTotal(m).Seconds())
	}
	if len(times) != 3 {
		t.Fatal("expected three machines")
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	// Machine 1 (50 MHz) must be the slowest overall.
	if times[0] != sorted[2] {
		t.Fatalf("machine 1 should be slowest: %v", times)
	}
}
