package jointest_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/jointest"
)

const seed = 22

var (
	universe = geom.NewRect(0, 0, 1000, 1000)
	cuts     = []geom.Coord{250, 500, 750}
)

// failure records what Check would have failed a test with.
type failure struct {
	testing.TB
	msg string
}

func (f *failure) Helper()           {}
func (f *failure) Fatal(args ...any) { f.msg = fmt.Sprint(args...) }

// TestReferenceIsAMultiset: two records that share an ID and both meet
// the other side's record are two results. An answer that reports the
// ID pair once — what deduplicating by ID produces — must fail the
// check, and the failure must show the rectangles.
func TestReferenceIsAMultiset(t *testing.T) {
	a := []geom.Record{
		{ID: 1, Rect: geom.NewRect(400, 0, 520, 10)},
		{ID: 1, Rect: geom.NewRect(300, 5, 410, 20)},
	}
	b := []geom.Record{{ID: 7, Rect: geom.NewRect(300, 0, 520, 10)}}
	want := jointest.Join(a, b, nil)
	pair := geom.Pair{Left: 1, Right: 7}
	if want[pair] != 2 || want.Len() != 2 {
		t.Fatalf("the reference counts %v, want the pair (1,7) twice", want)
	}
	rec := &failure{TB: t}
	jointest.CheckJoin(rec, "deduplicated by ID", a, b, want, jointest.Bag[geom.Pair]{pair: 1})
	for _, part := range []string{"missing (1)", "(1,7)", a[0].Rect.String(), a[1].Rect.String(), b[0].Rect.String()} {
		if !strings.Contains(rec.msg, part) {
			t.Fatalf("checking a by-ID-deduplicated answer fails with %q, which lacks %q", rec.msg, part)
		}
	}
	rec = &failure{TB: t}
	jointest.CheckJoin(rec, "exact", a, b, want, jointest.Bag[geom.Pair]{pair: 2})
	if rec.msg != "" {
		t.Fatalf("checking the exact answer fails: %s", rec.msg)
	}
	rec = &failure{TB: t}
	jointest.CheckJoin(rec, "one too many", a, b, want, jointest.Bag[geom.Pair]{pair: 3})
	if !strings.Contains(rec.msg, "surplus (1)") {
		t.Fatalf("checking an answer with a repeat too many fails with %q", rec.msg)
	}
	// The pair at reference point 400 belongs to [.., 500); the one at
	// 300, too; none to [500, ..).
	if got := jointest.Owned(a, b, nil, 500, 1e9); got.Len() != 0 {
		t.Fatalf("the interval from 500 owns %v", got)
	}
}

// TestReferenceAgreesWithItself ties the reference's query classes to
// each other on every shape: the shares of a tiling add up to the
// join, the mirror of a ⋈ b is b ⋈ a, a 2-way multiway join is the
// join, and every pair of a 3-way tuple is in the pairwise join.
func TestReferenceAgreesWithItself(t *testing.T) {
	small := geom.NewRect(180, 240, 620, 700)
	inf := geom.Coord(math.Inf(1))
	for _, sh := range jointest.Shapes {
		in := sh.Gen(seed, universe, cuts)
		a, b, c := in.A, in.B, in.C
		for _, win := range []*geom.Rect{nil, &small} {
			what := fmt.Sprintf("%s, window %v", sh.Name, win)
			whole := jointest.Join(a, b, win)
			shares, mirror := jointest.Bag[geom.Pair]{}, jointest.Bag[geom.Pair]{}
			lo := -inf
			for _, hi := range append(cuts[:len(cuts):len(cuts)], inf) {
				shares.Union(jointest.Owned(a, b, win, lo, hi))
				lo = hi
			}
			jointest.Check(t, what+": shares of a tiling", whole, shares, nil)
			for p, n := range jointest.Join(b, a, win) {
				mirror[geom.Pair{Left: p.Right, Right: p.Left}] = n
			}
			jointest.Check(t, what+": mirror", whole, mirror, nil)
			twoWay := jointest.Bag[geom.Pair]{}
			for tp, n := range jointest.Multiway(win, a, b) {
				twoWay[geom.Pair{Left: tp[0], Right: tp[1]}] += n
			}
			jointest.Check(t, what+": 2-way multiway", whole, twoWay, nil)
			for tp := range jointest.Multiway(win, a, b, c) {
				if whole[geom.Pair{Left: tp[0], Right: tp[1]}] == 0 {
					t.Fatalf("%s: triple %v without its pair", what, tp)
				}
			}
		}
	}
}

// TestShapesAreWhatTheySay: a shape is a function of its arguments,
// its rectangles are valid and finite, and the shapes that exist for
// one property have it.
func TestShapesAreWhatTheySay(t *testing.T) {
	for _, sh := range jointest.Shapes {
		in := sh.Gen(seed, universe, cuts)
		if again := sh.Gen(seed, universe, cuts); !reflect.DeepEqual(in, again) {
			t.Errorf("%s: two draws from one seed differ", sh.Name)
		}
		for _, r := range append(append(append([]geom.Record(nil), in.A...), in.B...), in.C...) {
			if !r.Rect.Valid() || !r.Rect.Finite() {
				t.Fatalf("%s: record %d has rectangle %v", sh.Name, r.ID, r.Rect)
			}
		}
		if in.BaseA < 0 || in.BaseA > len(in.A) || in.BaseB < 0 || in.BaseB > len(in.B) {
			t.Errorf("%s: bases %d of %d and %d of %d", sh.Name, in.BaseA, len(in.A), in.BaseB, len(in.B))
		}
	}
	repeats := func(recs []geom.Record) bool {
		seen := map[geom.ID]bool{}
		for _, r := range recs {
			if seen[r.ID] {
				return true
			}
			seen[r.ID] = true
		}
		return false
	}
	// Repeated IDs must make a difference: some pair of IDs is a result
	// more than once, or a set would do for a reference.
	twice := func(in jointest.Input) bool {
		for _, n := range jointest.Join(in.A, in.B, nil) {
			if n > 1 {
				return true
			}
		}
		return false
	}
	if in := jointest.ShapeNamed("repeated-ids-left").Gen(seed, universe, nil); !repeats(in.A) || repeats(in.B) || !twice(in) {
		t.Error("repeated-ids-left: IDs must repeat on the left and only there, and some pair must be a result twice")
	}
	if in := jointest.ShapeNamed("repeated-ids-both").Gen(seed, universe, nil); !repeats(in.A) || !repeats(in.B) || !twice(in) {
		t.Error("repeated-ids-both: IDs must repeat on both sides, and some pair must be a result twice")
	}
	// on-cuts: on every cut a record ends exactly, one starts exactly,
	// and the two are on opposite sides of the join and meet.
	in := jointest.ShapeNamed("on-cuts").Gen(seed, universe, cuts)
	for _, c := range cuts {
		met := false
		for _, ra := range in.A {
			for _, rb := range in.B {
				if ra.Rect.Intersects(rb.Rect) && (ra.Rect.XHi == c && rb.Rect.XLo == c || ra.Rect.XLo == c && rb.Rect.XHi == c) {
					met = true
				}
			}
		}
		if !met {
			t.Errorf("on-cuts: no pair meets in the line x = %v", c)
		}
	}
	if in := jointest.ShapeNamed("delta-outside").Gen(seed, universe, nil); true {
		base, delta := geom.EmptyRect(), geom.EmptyRect()
		for i, r := range in.A {
			if i < in.BaseA {
				base = base.Union(r.Rect)
			} else {
				delta = delta.Union(r.Rect)
			}
		}
		if in.BaseA == 0 || in.BaseA == len(in.A) || base.Intersects(delta) {
			t.Errorf("delta-outside: base MBR %v, delta MBR %v", base, delta)
		}
	}
	xlo, _, _, _, _ := jointest.OverflowRecord()
	if r := (geom.Rect{XLo: geom.Coord(xlo), XHi: geom.Coord(xlo)}); !r.Valid() || r.Finite() {
		t.Errorf("the overflowing coordinate %g becomes %v as a float32: must be valid and not finite", xlo, r.XLo)
	}
}
