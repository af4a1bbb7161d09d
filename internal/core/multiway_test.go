package core

import (
	"errors"
	"fmt"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/jointest"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// tupleOf is a result tuple as the reference keys it.
func tupleOf(ids []geom.ID) (tp jointest.Tuple) {
	copy(tp[:], ids)
	return tp
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
	want := jointest.Multiway(nil, recsA, recsB, recsC)

	for name, inputs := range map[string][]Input{
		"trees": {TreeInput(e.treeA), TreeInput(e.treeB), TreeInput(treeC)},
		"mixed": {TreeInput(e.treeA), FileInput(e.fileB), FileInput(fileC)},
		"files": {FileInput(e.fileA), FileInput(e.fileB), FileInput(fileC)},
	} {
		t.Run(name, func(t *testing.T) {
			got := jointest.Bag[jointest.Tuple]{}
			res, err := MultiwayPQ(bg, e.options(), inputs, func(ids []geom.ID) {
				if len(ids) != 3 {
					t.Fatalf("tuple arity %d", len(ids))
				}
				got.Add(tupleOf(ids))
			})
			if err != nil {
				t.Fatal(err)
			}
			jointest.Check(t, name, want, got, nil)
			if res.Tuples != want.Len() {
				t.Fatalf("Tuples=%d want %d", res.Tuples, want.Len())
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
	got := jointest.Bag[geom.Pair]{}
	res, err := MultiwayPQ(bg, e.options(), []Input{TreeInput(e.treeA), TreeInput(e.treeB)}, func(ids []geom.ID) {
		got.Add(geom.Pair{Left: ids[0], Right: ids[1]})
	})
	if err != nil {
		t.Fatal(err)
	}
	e.checkJoin(t, "2-way multiway", got)
	if res.Tuples != got.Len() {
		t.Fatalf("Tuples=%d, %d emitted", res.Tuples, got.Len())
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

	got := jointest.Bag[jointest.Tuple]{}
	res, err := MultiwayPQ(bg, e.options(),
		[]Input{FileInput(e.fileA), FileInput(e.fileB), FileInput(fileC), FileInput(fileD)},
		func(ids []geom.ID) { got.Add(tupleOf(ids)) })
	if err != nil {
		t.Fatal(err)
	}
	jointest.Check(t, "4-way join", jointest.Multiway(nil, recs...), got, nil)
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
	if want := jointest.Join(e.recsA, e.recsB, nil).Len(); res.Tuples != want {
		t.Fatalf("tuples=%d want %d", res.Tuples, want)
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
	recsA, recsB, recsC := genUniform(90, 500, u, 60), genUniform(91, 500, u, 60), genUniform(92, 500, u, 60)
	e := buildEnv(t, u, recsA, recsB)
	fileC, treeC := buildThird(t, e, recsC)
	want := jointest.Multiway(&window, recsA, recsB, recsC)
	if all := jointest.Multiway(nil, recsA, recsB, recsC); want.Len() == 0 || want.Len() == all.Len() {
		t.Fatalf("the window keeps %d of %d tuples: the case cannot tell a windowed join from another", want.Len(), all.Len())
	}
	for name, inputs := range map[string][]Input{
		"trees": {TreeInput(e.treeA), TreeInput(e.treeB), TreeInput(treeC)},
		"mixed": {FileInput(e.fileA), TreeInput(e.treeB), FileInput(fileC)},
	} {
		o := e.options()
		o.Window = &window
		got := jointest.Bag[jointest.Tuple]{}
		res, err := MultiwayPQ(bg, o, inputs, func(ids []geom.ID) { got.Add(tupleOf(ids)) })
		if err != nil {
			t.Fatal(err)
		}
		jointest.Check(t, name, want, got, nil)
		if res.Tuples != want.Len() {
			t.Fatalf("%s: Tuples says %d, the reference finds %d", name, res.Tuples, want.Len())
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
	err := joinInputs(bg, o, &res, a, b, func(ra, rb geom.Record) {
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
