package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{XLo: 1, YLo: 2, XHi: 5, YHi: 7}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatalf("normalized rect should be valid")
	}
}

// TestFiniteIsWhatValidLetsThrough: an infinite coordinate passes
// Valid — and no interval of a tiling loads a rectangle that starts at
// +Inf — so records from outside are held to Finite as well.
func TestFiniteIsWhatValidLetsThrough(t *testing.T) {
	inf, nan := Coord(math.Inf(1)), Coord(math.NaN())
	overflowing := 1e39 // a float64 a JSON body can carry
	for _, tc := range []struct {
		r             Rect
		valid, finite bool
	}{
		{NewRect(1, 2, 3, 4), true, true},
		{Rect{XLo: inf, YLo: 10, XHi: inf, YHi: 20}, true, false},
		{Rect{XLo: -inf, YLo: 0, XHi: 5, YHi: 5}, true, false},
		{Rect{XLo: 0, YLo: 0, XHi: 5, YHi: inf}, true, false},
		{Rect{XLo: nan, YLo: 0, XHi: 5, YHi: 5}, false, false},
		{Rect{XLo: Coord(overflowing), YLo: 0, XHi: Coord(overflowing), YHi: 5}, true, false},
	} {
		if tc.r.Valid() != tc.valid || tc.r.Finite() != tc.finite {
			t.Errorf("%v: Valid %v, Finite %v; want %v, %v", tc.r, tc.r.Valid(), tc.r.Finite(), tc.valid, tc.finite)
		}
	}
	if r := (Rect{XLo: inf, YLo: 10, XHi: inf, YHi: 20}); (Interval{Lo: 500, Hi: inf}).Loads(r) {
		t.Error("the last interval of a tiling loads a rectangle at +Inf: Finite's reason is gone, say so in its comment")
	}
}

func TestIntersectsBasic(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	cases := []struct {
		name string
		b    Rect
		want bool
	}{
		{"contained", NewRect(2, 2, 3, 3), true},
		{"overlap corner", NewRect(8, 8, 12, 12), true},
		{"touch edge", NewRect(10, 0, 20, 10), true},
		{"touch corner", NewRect(10, 10, 20, 20), true},
		{"disjoint right", NewRect(11, 0, 20, 10), false},
		{"disjoint above", NewRect(0, 11, 10, 20), false},
		{"identical", a, true},
		{"degenerate point inside", NewRect(5, 5, 5, 5), true},
		{"degenerate point outside", NewRect(15, 5, 15, 5), false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%s: a.Intersects(%v) = %v, want %v", c.name, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("%s: symmetric Intersects mismatch", c.name)
		}
	}
}

func TestIntersectionAgreesWithIntersects(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float32) bool {
		a := NewRect(ax, ay, ax+abs32(aw), ay+abs32(ah))
		b := NewRect(bx, by, bx+abs32(bw), by+abs32(bh))
		_, ok := a.Intersection(b)
		return ok == a.Intersects(b)
	}
	cfg := &quick.Config{MaxCount: 2000, Values: smallFloatValues(8)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionIsContainedInBoth(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float32) bool {
		a := NewRect(ax, ay, ax+abs32(aw), ay+abs32(ah))
		b := NewRect(bx, by, bx+abs32(bw), by+abs32(bh))
		in, ok := a.Intersection(b)
		if !ok {
			return true
		}
		return a.Contains(in) && b.Contains(in)
	}
	cfg := &quick.Config{MaxCount: 2000, Values: smallFloatValues(8)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUnionContainsBoth(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float32) bool {
		a := NewRect(ax, ay, ax+abs32(aw), ay+abs32(ah))
		b := NewRect(bx, by, bx+abs32(bw), by+abs32(bh))
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	cfg := &quick.Config{MaxCount: 2000, Values: smallFloatValues(8)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRectIsUnionIdentity(t *testing.T) {
	r := NewRect(3, 4, 5, 6)
	if got := EmptyRect().Union(r); got != r {
		t.Fatalf("EmptyRect().Union(%v) = %v", r, got)
	}
	if EmptyRect().Valid() {
		t.Fatal("EmptyRect should be invalid on its own")
	}
}

func TestUnionAll(t *testing.T) {
	rs := []Rect{NewRect(0, 0, 1, 1), NewRect(5, 5, 6, 6), NewRect(-2, 3, 0, 4)}
	got := UnionAll(rs)
	want := Rect{XLo: -2, YLo: 0, XHi: 6, YHi: 6}
	if got != want {
		t.Fatalf("UnionAll = %v, want %v", got, want)
	}
	if UnionAll(nil).Valid() {
		t.Fatal("UnionAll(nil) should be the empty rect")
	}
}

func TestAreaAndDims(t *testing.T) {
	r := NewRect(1, 2, 4, 7)
	if got := r.Area(); got != 15 {
		t.Fatalf("Area = %v, want 15", got)
	}
	if r.Width() != 3 || r.Height() != 5 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if got := r.Margin(); got != 8 {
		t.Fatalf("Margin = %v, want 8", got)
	}
	c := r.Center()
	if c.X != 2.5 || c.Y != 4.5 {
		t.Fatalf("Center = %v", c)
	}
}

func TestEnlargementArea(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	if got := r.EnlargementArea(NewRect(1, 1, 2, 2)); got != 0 {
		t.Fatalf("contained enlargement = %v, want 0", got)
	}
	if got := r.EnlargementArea(NewRect(0, 0, 4, 2)); got != 4 {
		t.Fatalf("enlargement = %v, want 4", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	f := func(xlo, ylo, xhi, yhi float32, id uint32) bool {
		rec := Record{Rect: Rect{XLo: xlo, YLo: ylo, XHi: xhi, YHi: yhi}, ID: id}
		var buf [RecordSize]byte
		if n := EncodeRecord(buf[:], rec); n != RecordSize {
			return false
		}
		return DecodeRecord(buf[:]) == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPairRoundTrip(t *testing.T) {
	f := func(l, r uint32) bool {
		p := Pair{Left: l, Right: r}
		var buf [PairSize]byte
		if n := EncodePair(buf[:], p); n != PairSize {
			return false
		}
		return DecodePair(buf[:]) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestByLowerYOrdering(t *testing.T) {
	a := Record{Rect: NewRect(0, 1, 1, 2), ID: 7}
	b := Record{Rect: NewRect(0, 2, 1, 3), ID: 3}
	if ByLowerY(a, b) >= 0 {
		t.Fatal("a should sort before b")
	}
	if ByLowerY(b, a) <= 0 {
		t.Fatal("b should sort after a")
	}
	// Tie on y: broken by ID.
	c := Record{Rect: NewRect(5, 1, 6, 9), ID: 9}
	if ByLowerY(a, c) >= 0 {
		t.Fatal("tie should break by ID")
	}
	if ByLowerY(a, a) != 0 {
		t.Fatal("identical records should compare equal")
	}
}

func TestPairLess(t *testing.T) {
	if !PairLess(Pair{1, 5}, Pair{2, 0}) {
		t.Fatal("left component dominates")
	}
	if !PairLess(Pair{1, 5}, Pair{1, 6}) {
		t.Fatal("right component breaks ties")
	}
	if PairLess(Pair{1, 5}, Pair{1, 5}) {
		t.Fatal("equal pairs are not less")
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		x := uint32(rng.Intn(hilbertSide))
		y := uint32(rng.Intn(hilbertSide))
		d := HilbertXY2D(x, y)
		gx, gy := HilbertD2XY(d)
		if gx != x || gy != y {
			t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
		}
	}
}

func TestHilbertCurveIsContinuous(t *testing.T) {
	// Consecutive curve positions must be grid neighbors (Manhattan
	// distance 1) — the locality property bulk loading relies on.
	const n = 1 << 12 // check a prefix of the curve
	px, py := HilbertD2XY(0)
	for d := uint64(1); d < n; d++ {
		x, y := HilbertD2XY(d)
		dist := absDiff(x, px) + absDiff(y, py)
		if dist != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d) -> (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestHilbertValueClamps(t *testing.T) {
	u := NewRect(0, 0, 100, 100)
	inside := HilbertValue(Point{X: 50, Y: 50}, u)
	if inside == 0 && HilbertValue(Point{X: 99, Y: 99}, u) == 0 {
		t.Fatal("distinct interior points should not all collapse to 0")
	}
	// Outside points clamp instead of wrapping.
	lo := HilbertValue(Point{X: -10, Y: -10}, u)
	if lo != HilbertValue(Point{X: 0, Y: 0}, u) {
		t.Fatalf("clamped low corner mismatch: %d", lo)
	}
	hi := HilbertValue(Point{X: 200, Y: 200}, u)
	if hi != HilbertValue(Point{X: 100, Y: 100}, u) {
		t.Fatalf("clamped high corner mismatch: %d", hi)
	}
}

func TestHilbertValueDegenerateUniverse(t *testing.T) {
	u := NewRect(5, 0, 5, 100) // zero width
	v := HilbertValue(Point{X: 5, Y: 50}, u)
	_ = v                       // must not panic or divide by zero
	u2 := NewRect(0, 7, 100, 7) // zero height
	_ = HilbertValue(Point{X: 50, Y: 7}, u2)
}

func TestHilbertLocality(t *testing.T) {
	// Points close in the plane should on average be closer on the
	// curve than far-apart points. This is statistical, so use fixed
	// seed and generous margins.
	u := NewRect(0, 0, 1, 1)
	rng := rand.New(rand.NewSource(7))
	var nearSum, farSum float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		x := rng.Float32()
		y := rng.Float32()
		base := HilbertValue(Point{X: x, Y: y}, u)
		near := HilbertValue(Point{X: x + 0.001, Y: y}, u)
		far := HilbertValue(Point{X: 1 - x, Y: 1 - y}, u)
		nearSum += absDiff64(base, near)
		farSum += absDiff64(base, far)
	}
	if nearSum >= farSum {
		t.Fatalf("expected locality: nearSum=%g farSum=%g", nearSum, farSum)
	}
}

// smallFloatValues generates n float32 arguments in a modest range so
// that float32 arithmetic in the properties stays exact enough.
func smallFloatValues(n int) func(args []reflect.Value, rng *rand.Rand) {
	return func(args []reflect.Value, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			args[i] = reflect.ValueOf(float32(rng.Intn(2000)-1000) / 4)
		}
	}
}

func abs32(v float32) float32 {
	return float32(math.Abs(float64(v)))
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func absDiff64(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
