package core

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// bruteTriples computes the reference 3-way intersection result.
func bruteTriples(a, b, c []geom.Record) map[[3]geom.ID]bool {
	out := make(map[[3]geom.ID]bool)
	for _, ra := range a {
		for _, rb := range b {
			in, ok := ra.Rect.Intersection(rb.Rect)
			if !ok {
				continue
			}
			for _, rc := range c {
				if in.Intersects(rc.Rect) {
					out[[3]geom.ID{ra.ID, rb.ID, rc.ID}] = true
				}
			}
		}
	}
	return out
}

func buildThird(t *testing.T, e *env, recs []geom.Record) (*iosim.File, *rtree.Tree) {
	t.Helper()
	f, err := stream.WriteAll(e.store, stream.Records, recs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.Build(e.store, f, e.universe,
		rtree.BuildOptions{Fanout: 32, FillFactor: 0.75, AreaSlack: 0.2, SortMemory: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return f, tr
}

func TestMultiwayThreeWayMatchesBruteForce(t *testing.T) {
	u := geom.NewRect(0, 0, 500, 500)
	recsA := genUniform(60, 400, u, 50)
	recsB := genUniform(61, 400, u, 50)
	recsC := genUniform(62, 400, u, 50)
	e := buildEnv(t, u, recsA, recsB)
	fileC, treeC := buildThird(t, e, recsC)
	want := bruteTriples(recsA, recsB, recsC)

	for name, inputs := range map[string][]Input{
		"trees": {TreeInput(e.treeA), TreeInput(e.treeB), TreeInput(treeC)},
		"mixed": {TreeInput(e.treeA), FileInput(e.fileB), FileInput(fileC)},
		"files": {FileInput(e.fileA), FileInput(e.fileB), FileInput(fileC)},
	} {
		t.Run(name, func(t *testing.T) {
			got := make(map[[3]geom.ID]bool)
			res, err := MultiwayPQ(bg, e.options(), inputs, func(ids []geom.ID) {
				if len(ids) != 3 {
					t.Fatalf("tuple arity %d", len(ids))
				}
				key := [3]geom.ID{ids[0], ids[1], ids[2]}
				if got[key] {
					t.Fatalf("duplicate tuple %v", key)
				}
				got[key] = true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d triples, want %d", len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("missing triple %v", k)
				}
			}
			if res.Tuples != int64(len(want)) {
				t.Fatalf("Tuples=%d want %d", res.Tuples, len(want))
			}
			if len(res.Stages) != 2 || len(res.Intermediate) != 2 {
				t.Fatalf("stage accounting: %d stages, %d intermediates", len(res.Stages), len(res.Intermediate))
			}
		})
	}
}

func TestMultiwayTwoWayReducesToPQ(t *testing.T) {
	u := geom.NewRect(0, 0, 500, 500)
	e := buildEnv(t, u, genUniform(63, 500, u, 40), genUniform(64, 500, u, 40))
	want := bruteForcePairs(e.recsA, e.recsB)
	var tuples int
	res, err := MultiwayPQ(bg, e.options(), []Input{TreeInput(e.treeA), TreeInput(e.treeB)}, func(ids []geom.ID) {
		if !want[geom.Pair{Left: ids[0], Right: ids[1]}] {
			t.Fatalf("unexpected pair %v", ids)
		}
		tuples++
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuples != len(want) || res.Tuples != int64(len(want)) {
		t.Fatalf("tuples=%d want %d", tuples, len(want))
	}
}

func TestMultiwayFourWay(t *testing.T) {
	u := geom.NewRect(0, 0, 200, 200)
	recs := make([][]geom.Record, 4)
	for i := range recs {
		recs[i] = genUniform(int64(70+i), 120, u, 60)
	}
	e := buildEnv(t, u, recs[0], recs[1])
	fileC, _ := buildThird(t, e, recs[2])
	fileD, _ := buildThird(t, e, recs[3])

	// Brute force 4-way.
	want := make(map[[4]geom.ID]bool)
	for _, ra := range recs[0] {
		for _, rb := range recs[1] {
			in1, ok := ra.Rect.Intersection(rb.Rect)
			if !ok {
				continue
			}
			for _, rc := range recs[2] {
				in2, ok := in1.Intersection(rc.Rect)
				if !ok {
					continue
				}
				for _, rd := range recs[3] {
					if in2.Intersects(rd.Rect) {
						want[[4]geom.ID{ra.ID, rb.ID, rc.ID, rd.ID}] = true
					}
				}
			}
		}
	}

	got := make(map[[4]geom.ID]bool)
	res, err := MultiwayPQ(bg, e.options(),
		[]Input{FileInput(e.fileA), FileInput(e.fileB), FileInput(fileC), FileInput(fileD)},
		func(ids []geom.ID) { got[[4]geom.ID{ids[0], ids[1], ids[2], ids[3]}] = true })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d quadruples, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing %v", k)
		}
	}
	if len(res.Stages) != 3 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
}

func TestMultiwayValidation(t *testing.T) {
	u := geom.NewRect(0, 0, 100, 100)
	e := buildEnv(t, u, genUniform(80, 20, u, 10), genUniform(81, 20, u, 10))
	both := []Input{TreeInput(e.treeA), TreeInput(e.treeB)}
	owned := e.options()
	owned.Own = &geom.Interval{Lo: 0, Hi: 50}
	for _, tc := range []struct {
		name   string
		opts   Options
		inputs []Input
		is     error // nil: any error
	}{
		{"fewer than 2 inputs", e.options(), both[:1], nil},
		{"missing store", Options{}, both, nil},
		{"Own is refused, not dropped", owned, both, errors.ErrUnsupported},
	} {
		_, err := MultiwayPQ(bg, tc.opts, tc.inputs, nil)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
	}
	// nil emit is allowed: counting only.
	res, err := MultiwayPQ(bg, e.options(), []Input{TreeInput(e.treeA), TreeInput(e.treeB)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForcePairs(e.recsA, e.recsB)
	if res.Tuples != int64(len(want)) {
		t.Fatalf("tuples=%d want %d", res.Tuples, len(want))
	}
}

// TestMultiwayWindowMatchesBruteForce: under Options.Window a tuple
// counts when each of its records intersects the window. The inputs
// are window-filtered and the intermediate side is not — it need not
// be: boxes that pairwise intersect share a point, so the common
// intersection of records that all meet the window meets it too.
func TestMultiwayWindowMatchesBruteForce(t *testing.T) {
	u := geom.NewRect(0, 0, 500, 500)
	window := geom.NewRect(100, 120, 260, 300)
	inWindow := func(recs []geom.Record) []geom.Record {
		var out []geom.Record
		for _, r := range recs {
			if r.Rect.Intersects(window) {
				out = append(out, r)
			}
		}
		return out
	}
	recsA, recsB, recsC := genUniform(90, 500, u, 60), genUniform(91, 500, u, 60), genUniform(92, 500, u, 60)
	e := buildEnv(t, u, recsA, recsB)
	fileC, treeC := buildThird(t, e, recsC)
	want := bruteTriples(inWindow(recsA), inWindow(recsB), inWindow(recsC))
	if all := bruteTriples(recsA, recsB, recsC); len(want) == 0 || len(want) == len(all) {
		t.Fatalf("the window keeps %d of %d tuples: the case cannot tell a windowed join from another", len(want), len(all))
	}
	for name, inputs := range map[string][]Input{
		"trees": {TreeInput(e.treeA), TreeInput(e.treeB), TreeInput(treeC)},
		"mixed": {FileInput(e.fileA), TreeInput(e.treeB), FileInput(fileC)},
	} {
		o := e.options()
		o.Window = &window
		got := make(map[[3]geom.ID]bool)
		res, err := MultiwayPQ(bg, o, inputs, func(ids []geom.ID) { got[[3]geom.ID(ids)] = true })
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples != int64(len(want)) || !maps.Equal(got, want) {
			t.Fatalf("%s: %d tuples, %d distinct, brute force over the window's records finds %d",
				name, res.Tuples, len(got), len(want))
		}
	}
}

func TestMultiwayIntermediateOrderIsSorted(t *testing.T) {
	// The property Section 4 relies on: pairwise output arrives sorted
	// by the intersection's lower y, so it can feed the next sweep
	// directly. Verify via the emitted sequence of a 2-way stage.
	u := geom.NewRect(0, 0, 500, 500)
	e := buildEnv(t, u, genUniform(82, 800, u, 40), genUniform(83, 800, u, 40))
	o := e.options()
	prev := float64(-1e30)
	violations := 0
	a, b := TreeInput(e.treeA), TreeInput(e.treeB)
	var res Result
	err := sweepSides(bg, o, &res, sorted(a, b), sorted(b, a), func(ra, rb geom.Record) {
		in, ok := ra.Rect.Intersection(rb.Rect)
		if !ok {
			t.Fatal("emitted pair without intersection")
		}
		if float64(in.YLo) < prev {
			violations++
		}
		prev = float64(in.YLo)
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d order violations in pairwise output", violations)
	}
}

func ExampleMultiwayPQ() {
	store := iosim.NewStore(iosim.DefaultPageSize)
	u := geom.NewRect(0, 0, 10, 10)
	mk := func(rects ...geom.Rect) *iosim.File {
		recs := make([]geom.Record, len(rects))
		for i, r := range rects {
			recs[i] = geom.Record{Rect: r, ID: geom.ID(i)}
		}
		f, _ := stream.WriteAll(store, stream.Records, recs)
		return f
	}
	a := mk(geom.NewRect(0, 0, 4, 4))
	b := mk(geom.NewRect(2, 2, 6, 6))
	c := mk(geom.NewRect(3, 3, 8, 8), geom.NewRect(9, 9, 10, 10))
	res, _ := MultiwayPQ(bg, Options{Store: store, Universe: u},
		[]Input{FileInput(a), FileInput(b), FileInput(c)},
		func(ids []geom.ID) { fmt.Println(ids) })
	fmt.Println("tuples:", res.Tuples)
	// Output:
	// [0 0 0]
	// tuples: 1
}
