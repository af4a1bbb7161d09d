package unijoin

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/jointest"
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

func TestWorkspaceJoinAllAlgorithms(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	want := jointest.Join(ra, rb, nil)
	for _, alg := range []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM, AlgST, AlgAuto, AlgBFRJ} {
		t.Run(alg.String(), func(t *testing.T) {
			got := jointest.Bag[Pair]{}
			res, err := ws.Query(a, b).Algorithm(alg).Emit(got.Add).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			jointest.CheckJoin(t, alg.String(), ra, rb, want, got)
			if res.Count() != want.Len() {
				t.Fatalf("%v: counted %d pairs, want %d", alg, res.Count(), want.Len())
			}
			if alg == AlgAuto && res.Decision == nil {
				t.Fatal("auto join must report its decision")
			}
		})
	}
}

// TestReadRecordFileRefusesNonFiniteCoordinates: a record file is
// input from outside; a NaN or infinite coordinate in it fails the load
// and names the record.
func TestReadRecordFileRefusesNonFiniteCoordinates(t *testing.T) {
	inf := Coord(math.Inf(1))
	recs := []Record{
		{ID: 7, Rect: NewRect(1, 2, 3, 4)},
		{ID: 8, Rect: Rect{XLo: inf, YLo: 10, XHi: inf, YHi: 20}},
	}
	write := func(recs []Record) string {
		data := make([]byte, 0, len(recs)*geom.RecordSize)
		for _, r := range recs {
			data = data[:len(data)+geom.RecordSize]
			geom.EncodeRecord(data[len(data)-geom.RecordSize:], r)
		}
		path := filepath.Join(t.TempDir(), "recs.bin")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if got, err := ReadRecordFile(write(recs[:1])); err != nil || len(got) != 1 || got[0] != recs[0] {
		t.Fatalf("a finite file reads as %v, %v", got, err)
	}
	_, err := ReadRecordFile(write(recs))
	if err == nil || !strings.Contains(err.Error(), "record 1 (id 8)") {
		t.Fatalf("a file with a record at +Inf reads with error %v, want one naming record 1 (id 8)", err)
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
	if res.Count() != jointest.Join(ra, rb, nil).Len() {
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

	want := jointest.Multiway(nil, ra, rb, rc)
	got := jointest.Bag[jointest.Tuple]{}
	res, err := ws.MultiwayJoin(context.Background(), []*Relation{a, b, c}, func(ids []ID) {
		got.Add(jointest.Tuple{ids[0], ids[1], ids[2]})
	})
	if err != nil {
		t.Fatal(err)
	}
	jointest.Check(t, "3-way join", want, got, nil)
	if res.Tuples != want.Len() {
		t.Fatalf("Tuples = %d, want %d", res.Tuples, want.Len())
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
	want := jointest.Join(ra, rb, &w).Len()
	res, err := ws.Query(a, b).Window(w).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != want {
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
