// Package jointest is the test support the exactness tests of every
// package share: one brute-force reference for each query class the
// library answers, one checker that says what is missing and what is
// surplus, and one seeded generator of the input shapes that have
// broken a join before (shapes.go). It imports only geom and datagen,
// so in-package tests anywhere can use it.
//
// The reference is a multiset: record IDs need not be unique, and a pair
// of IDs reported once where two record pairs intersect is a wrong
// answer a set cannot see.
package jointest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"unijoin/internal/geom"
)

// Bag is a multiset: how many times each key was reported.
type Bag[K comparable] map[K]int

// BagOf counts keys.
func BagOf[K comparable](keys []K) Bag[K] {
	b := make(Bag[K], len(keys))
	for _, k := range keys {
		b[k]++
	}
	return b
}

// Add counts one more k.
func (b Bag[K]) Add(k K) { b[k]++ }

// Len is the number of keys counted, repeats included.
func (b Bag[K]) Len() int64 {
	var n int64
	for _, c := range b {
		n += int64(c)
	}
	return n
}

// Union adds every count of o to b.
func (b Bag[K]) Union(o Bag[K]) {
	for k, c := range o {
		b[k] += c
	}
}

// Tuple is one result of a k-way join, k <= 4: the IDs in input order.
type Tuple [4]geom.ID

// inWindow reports whether a join under win (nil: none) sees r.
func inWindow(r geom.Record, win *geom.Rect) bool {
	return win == nil || r.Rect.Intersects(*win)
}

// Join is the reference join: one count of (a.ID, b.ID) for every
// record of a and record of b that intersect, both intersecting win
// when there is one.
func Join(a, b []geom.Record, win *geom.Rect) Bag[geom.Pair] {
	return join(a, b, win, func(geom.Coord) bool { return true })
}

// Owned is the share of Join an owner of the interval [lo, hi) reports:
// the pairs whose reference point — the larger of the two left edges,
// or win's left edge where that is larger still — lies in it. The rule
// is restated here, not taken from geom.Interval, which is one of the
// things under test.
func Owned(a, b []geom.Record, win *geom.Rect, lo, hi geom.Coord) Bag[geom.Pair] {
	return join(a, b, win, func(x geom.Coord) bool {
		if win != nil {
			x = clipped(x, *win)
		}
		return x >= lo && x < hi
	})
}

// clipped moves a reference point inside a window: no further left
// than the window's left edge.
func clipped(x geom.Coord, win geom.Rect) geom.Coord {
	if win.XLo > x {
		return win.XLo
	}
	return x
}

func join(a, b []geom.Record, win *geom.Rect, owns func(ref geom.Coord) bool) Bag[geom.Pair] {
	out := Bag[geom.Pair]{}
	for _, ra := range a {
		if !inWindow(ra, win) {
			continue
		}
		for _, rb := range b {
			if inWindow(rb, win) && ra.Rect.Intersects(rb.Rect) && owns(max(ra.Rect.XLo, rb.Rect.XLo)) {
				out.Add(geom.Pair{Left: ra.ID, Right: rb.ID})
			}
		}
	}
	return out
}

// Window is the reference window query: the records intersecting win.
func Window(recs []geom.Record, win geom.Rect) Bag[geom.Record] {
	inf := geom.Coord(math.Inf(1))
	return OwnedWindow(recs, win, -inf, inf)
}

// OwnedWindow is the share of Window an owner of the interval [lo, hi)
// reports: the records whose reference point — the left edge of record
// ∩ win — lies in it. Restated here like Owned's rule.
func OwnedWindow(recs []geom.Record, win geom.Rect, lo, hi geom.Coord) Bag[geom.Record] {
	out := Bag[geom.Record]{}
	for _, r := range recs {
		if x := clipped(r.Rect.XLo, win); r.Rect.Intersects(win) && x >= lo && x < hi {
			out.Add(geom.Record{Rect: r.Rect, ID: r.ID})
		}
	}
	return out
}

// Multiway is the reference k-way join, 2 <= k <= 4: one count of the
// IDs of every choice of one record per relation whose rectangles have
// a point in common, each record intersecting win when there is one.
func Multiway(win *geom.Rect, rels ...[]geom.Record) Bag[Tuple] {
	if len(rels) < 2 || len(rels) > len(Tuple{}) {
		panic(fmt.Sprintf("jointest: %d-way join", len(rels)))
	}
	out := Bag[Tuple]{}
	var extend func(depth int, common geom.Rect, ids Tuple)
	extend = func(depth int, common geom.Rect, ids Tuple) {
		if depth == len(rels) {
			out.Add(ids)
			return
		}
		for _, r := range rels[depth] {
			if !inWindow(r, win) {
				continue
			}
			if in, ok := common.Intersection(r.Rect); ok {
				ids[depth] = r.ID
				extend(depth+1, in, ids)
			}
		}
	}
	inf := geom.Coord(math.Inf(1))
	extend(0, geom.Rect{XLo: -inf, YLo: -inf, XHi: inf, YHi: inf}, Tuple{})
	return out
}

// Diff returns the keys got reports fewer times than want, and those
// it reports more often, each with the size of the difference.
func Diff[K comparable](want, got Bag[K]) (missing, surplus Bag[K]) {
	missing, surplus = Bag[K]{}, Bag[K]{}
	for k, w := range want {
		if g := got[k]; g < w {
			missing[k] = w - g
		}
	}
	for k, g := range got {
		if w := want[k]; g > w {
			surplus[k] = g - w
		}
	}
	return missing, surplus
}

// maxShown bounds how many missing and surplus keys Check prints.
const maxShown = 8

// Check fails t unless got is exactly want, multiplicities included.
// The message lists missing and surplus keys, each through describe
// (nil: %v).
func Check[K comparable](t testing.TB, what string, want, got Bag[K], describe func(K) string) {
	t.Helper()
	missing, surplus := Diff(want, got)
	if len(missing) == 0 && len(surplus) == 0 {
		return
	}
	if describe == nil {
		describe = func(k K) string { return fmt.Sprint(k) }
	}
	var msg strings.Builder
	fmt.Fprintf(&msg, "%s: reported %d, the reference finds %d", what, got.Len(), want.Len())
	for _, side := range []struct {
		name string
		bag  Bag[K]
	}{{"missing", missing}, {"surplus", surplus}} {
		if len(side.bag) == 0 {
			continue
		}
		fmt.Fprintf(&msg, "\n  %s (%d):", side.name, side.bag.Len())
		lines := make([]string, 0, len(side.bag))
		for k, c := range side.bag {
			lines = append(lines, fmt.Sprintf("%s ×%d", describe(k), c))
		}
		slices.Sort(lines)
		for i, l := range lines {
			if i == maxShown {
				fmt.Fprintf(&msg, "\n    … and %d more", len(lines)-i)
				break
			}
			msg.WriteString("\n    " + l)
		}
	}
	t.Fatal(msg.String())
}

// CheckJoin is Check for a join's pairs, each described by the
// rectangles of every record of a and of b that carries its IDs.
func CheckJoin(t testing.TB, what string, a, b []geom.Record, want, got Bag[geom.Pair]) {
	t.Helper()
	rects := func(recs []geom.Record, id geom.ID) string {
		var out []string
		for _, r := range recs {
			if r.ID == id {
				out = append(out, r.Rect.String())
			}
		}
		return strings.Join(out, " ")
	}
	Check(t, what, want, got, func(p geom.Pair) string {
		return fmt.Sprintf("%v left %s right %s", p, rects(a, p.Left), rects(b, p.Right))
	})
}
