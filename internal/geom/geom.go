// Package geom provides the planar geometry primitives used throughout
// unijoin: points, axis-parallel rectangles (MBRs — minimal bounding
// rectangles), the 20-byte on-disk record format from the paper, and the
// Hilbert space-filling curve used for R-tree bulk loading.
//
// The paper (Arge et al., EDBT 2000, Section 5.3) stores each MBR as a
// 20-byte record: four 4-byte corner coordinates plus a 4-byte object ID.
// This package keeps that exact layout so simulated data, index, and
// output sizes line up with Table 2 of the paper.
package geom

import (
	"fmt"
	"math"
)

// Coord is the coordinate type used for all geometry. The paper uses
// 4-byte coordinates; float32 matches the 16-bytes-per-rectangle layout.
type Coord = float32

// Point is a location in the plane.
type Point struct {
	X, Y Coord
}

// Rect is a closed, axis-parallel rectangle [XLo,XHi] x [YLo,YHi].
// A Rect is valid when XLo <= XHi and YLo <= YHi; degenerate (zero
// width or height) rectangles are valid and represent points/segments.
type Rect struct {
	XLo, YLo, XHi, YHi Coord
}

// NewRect returns the rectangle with the given corners, swapping
// coordinates as needed so the result is valid.
func NewRect(x1, y1, x2, y2 Coord) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{XLo: x1, YLo: y1, XHi: x2, YHi: y2}
}

// Valid reports whether r is a well-formed rectangle (lo <= hi on both
// axes). NaN coordinates make a rectangle invalid.
func (r Rect) Valid() bool {
	return r.XLo <= r.XHi && r.YLo <= r.YHi
}

// Finite reports whether no coordinate of r is NaN or infinite. Valid
// alone lets an infinite one through — a JSON 1e39 overflows float32
// to +Inf — and no stripe interval loads a rectangle that starts at
// +Inf, so a fleet would drop a record a single process keeps. Records
// arriving from outside the program are held to both.
func (r Rect) Finite() bool {
	for _, c := range [4]Coord{r.XLo, r.YLo, r.XHi, r.YHi} {
		if math.IsNaN(float64(c)) || math.IsInf(float64(c), 0) {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
// Touching edges count as intersecting, matching the filter-step
// semantics of the paper (candidate pairs are verified exactly in the
// refinement step, so the filter must not miss boundary contacts).
func (r Rect) Intersects(s Rect) bool {
	return r.XLo <= s.XHi && s.XLo <= r.XHi &&
		r.YLo <= s.YHi && s.YLo <= r.YHi
}

// IntersectsX reports whether the x-projections of r and s overlap.
// The plane-sweep kernels use this after the sweep line has already
// established y-overlap.
func (r Rect) IntersectsX(s Rect) bool {
	return r.XLo <= s.XHi && s.XLo <= r.XHi
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	return r.XLo <= s.XLo && s.XHi <= r.XHi &&
		r.YLo <= s.YLo && s.YHi <= r.YHi
}

// ContainsPoint reports whether the point p lies in r (boundary
// inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return r.XLo <= p.X && p.X <= r.XHi && r.YLo <= p.Y && p.Y <= r.YHi
}

// Intersection returns the common region of r and s. The boolean is
// false when the rectangles are disjoint, in which case the returned
// rectangle is the zero value.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	out := Rect{
		XLo: maxc(r.XLo, s.XLo),
		YLo: maxc(r.YLo, s.YLo),
		XHi: minc(r.XHi, s.XHi),
		YHi: minc(r.YHi, s.YHi),
	}
	if !out.Valid() {
		return Rect{}, false
	}
	return out, true
}

// Union returns the MBR of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		XLo: minc(r.XLo, s.XLo),
		YLo: minc(r.YLo, s.YLo),
		XHi: maxc(r.XHi, s.XHi),
		YHi: maxc(r.YHi, s.YHi),
	}
}

// Area returns the area of r in float64 to avoid float32 overflow on
// large universes.
func (r Rect) Area() float64 {
	return float64(r.XHi-r.XLo) * float64(r.YHi-r.YLo)
}

// Width returns the x extent of r.
func (r Rect) Width() Coord { return r.XHi - r.XLo }

// Height returns the y extent of r.
func (r Rect) Height() Coord { return r.YHi - r.YLo }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: r.XLo + (r.XHi-r.XLo)/2, Y: r.YLo + (r.YHi-r.YLo)/2}
}

// Margin returns half the perimeter of r (the R*-tree margin measure).
func (r Rect) Margin() float64 {
	return float64(r.XHi-r.XLo) + float64(r.YHi-r.YLo)
}

// EnlargementArea returns the area increase of r if grown to include s.
func (r Rect) EnlargementArea(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.XLo, r.XHi, r.YLo, r.YHi)
}

// EmptyRect returns the identity element for Union: a rectangle that is
// invalid on its own but yields s for EmptyRect().Union(s).
func EmptyRect() Rect {
	inf := Coord(math.Inf(1))
	return Rect{XLo: inf, YLo: inf, XHi: -inf, YHi: -inf}
}

// UnionAll returns the MBR of all rectangles in rs, or EmptyRect() when
// rs is empty.
func UnionAll(rs []Rect) Rect {
	u := EmptyRect()
	for _, r := range rs {
		u = u.Union(r)
	}
	return u
}

func minc(a, b Coord) Coord {
	if a < b {
		return a
	}
	return b
}

func maxc(a, b Coord) Coord {
	if a > b {
		return a
	}
	return b
}
