package unijoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCatalogLoadGetDrop(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	c := NewCatalog()
	c.Workspace().SetUniverse(u)

	if _, err := c.Load("", demoRecords(1, 10, u), false); err == nil {
		t.Fatal("empty name must be rejected")
	}
	a, err := c.Load("roads", demoRecords(1, 400, u), true)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pin().Indexed() {
		t.Fatal("Load(index=true) did not build the R-tree")
	}
	if _, err := c.Load("roads", demoRecords(2, 10, u), false); err == nil {
		t.Fatal("duplicate name must be rejected")
	}
	b, err := c.Load("hydro", demoRecords(2, 300, u), false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Pin().Indexed() {
		t.Fatal("Load(index=false) built an index")
	}

	if got, ok := c.Get("roads"); !ok || got != a {
		t.Fatal("Get(roads) did not return the loaded relation")
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get of unknown name succeeded")
	}
	if names := c.Names(); !reflect.DeepEqual(names, []string{"hydro", "roads"}) {
		t.Fatalf("Names() = %v", names)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d", c.Len())
	}

	// Cataloged relations join directly on the shared workspace.
	res, err := c.Workspace().Query(a, b).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Fatal("join of cataloged relations found no pairs")
	}

	if !c.Drop("roads") || c.Drop("roads") {
		t.Fatal("Drop must report presence exactly once")
	}
	if _, err := c.Load("roads", demoRecords(3, 50, u), false); err != nil {
		t.Fatalf("reload after drop: %v", err)
	}
}

// TestCatalogConcurrentLoadAndQuery exercises the single-writer /
// many-reader contract under the race detector: loads publish new
// relations while other goroutines look up and join existing ones.
func TestCatalogConcurrentLoadAndQuery(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	c := NewCatalog()
	c.Workspace().SetUniverse(u)
	a, err := c.Load("a", demoRecords(1, 300, u), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Load("b", demoRecords(2, 300, u), false)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_, err := c.Load(fmt.Sprintf("extra-%d", i), demoRecords(int64(10+i), 100, u), i%2 == 0)
			errs <- err
		}(i)
		go func() {
			defer wg.Done()
			if _, ok := c.Get("a"); !ok {
				errs <- errors.New("relation a disappeared")
				return
			}
			res, err := c.Workspace().Query(a, b).CountOnly().Run(context.Background())
			if err == nil && res.Count() == 0 {
				err = errors.New("concurrent join found no pairs")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 6 {
		t.Fatalf("Len() = %d after concurrent loads", c.Len())
	}
}

func TestWindowQueryBothPaths(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	recs := demoRecords(7, 900, u)
	win := NewRect(200, 150, 600, 500)

	want := map[ID]Rect{}
	for _, r := range recs {
		if r.Rect.Intersects(win) {
			want[r.ID] = r.Rect
		}
	}
	if len(want) == 0 {
		t.Fatal("test window selects nothing")
	}

	for _, indexed := range []bool{false, true} {
		name := map[bool]string{false: "scan", true: "rtree"}[indexed]
		t.Run(name, func(t *testing.T) {
			rel, err := ws.AddNamedRelation(name, recs)
			if err != nil {
				t.Fatal(err)
			}
			if indexed {
				if err := rel.BuildIndex(); err != nil {
					t.Fatal(err)
				}
			}
			got := map[ID]Rect{}
			n, err := rel.WindowQuery(context.Background(), win, func(r Record) {
				got[r.ID] = r.Rect
			})
			if err != nil {
				t.Fatal(err)
			}
			if int(n) != len(want) || !reflect.DeepEqual(got, want) {
				t.Fatalf("window query returned %d records, want %d", n, len(want))
			}
			// Count-only spelling (nil emit) agrees.
			n2, err := rel.WindowQuery(context.Background(), win, nil)
			if err != nil || n2 != n {
				t.Fatalf("count-only window query: n=%d err=%v", n2, err)
			}
		})
	}
}

func TestWindowQueryDisjointAndNil(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	rel, err := ws.AddRelation(demoRecords(3, 50, u))
	if err != nil {
		t.Fatal(err)
	}
	n, err := rel.WindowQuery(context.Background(), NewRect(5000, 5000, 6000, 6000), nil)
	if err != nil || n != 0 {
		t.Fatalf("disjoint window: n=%d err=%v", n, err)
	}
	var nilRel *Relation
	if _, err := nilRel.WindowQuery(context.Background(), u, nil); !errors.Is(err, ErrNilRelation) {
		t.Fatalf("nil relation error = %v", err)
	}
}

func TestWindowQueryCancel(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	rel, err := ws.AddRelation(demoRecords(4, 5000, u))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rel.WindowQuery(ctx, u, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled scan error = %v", err)
	}
	if err := rel.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.WindowQuery(ctx, u, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled tree query error = %v", err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"PQ": AlgPQ, "pq": AlgPQ, "": AlgPQ,
		"sssj": AlgSSSJ, "PBSM": AlgPBSM, "st": AlgST,
		"Auto": AlgAuto, "bfrj": AlgBFRJ, "Parallel": AlgParallel,
	}
	for in, want := range cases {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Round trip: every algorithm's String parses back to itself.
	for _, alg := range []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM, AlgST, AlgAuto, AlgBFRJ, AlgParallel} {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Fatalf("round trip %v: got %v, %v", alg, got, err)
		}
	}
}
