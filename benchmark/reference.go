package main

import (
	"math"

	"unijoin/internal/geom"
)

// This file is the benchmark's independent oracle: a grid-hash join
// and a linear window scan written against geom.Rect alone. It shares
// no code with the engines it checks (internal/sweep, parallel, core,
// rtree), so an engine bug cannot hide behind a matching reference.

// pairMix is a 64-bit finalizer (splitmix64) over one result pair.
// Summing it over a result set gives an order-independent checksum:
// streamed joins arrive in transport order, the reference in grid
// order, and equal sets must still compare equal.
func pairMix(left, right uint32) uint64 {
	z := uint64(left)<<32 | uint64(right)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// joinRef is the reference answer of one join: the pair count and the
// order-independent checksum of its pairs.
type joinRef struct {
	Pairs int64
	Sum   uint64
}

// add folds one pair into the reference.
func (j *joinRef) add(left, right uint32) {
	j.Pairs++
	j.Sum += pairMix(left, right)
}

// grid is a uniform cell grid over one relation: every record is
// registered in each cell its rectangle overlaps.
type grid struct {
	recs   []geom.Record
	x0, y0 float64
	cw, ch float64 // cell width and height
	n      int     // cells per axis
	cells  [][]int32
}

// newGrid indexes recs with about one record per cell on average
// (clustered data still piles up, which costs time, not correctness).
func newGrid(recs []geom.Record) *grid {
	u := geom.EmptyRect()
	for _, r := range recs {
		u = u.Union(r.Rect)
	}
	n := max(int(math.Sqrt(float64(len(recs)))), 1)
	g := &grid{
		recs: recs, n: n,
		x0: float64(u.XLo), y0: float64(u.YLo),
		cw: float64(u.Width()) / float64(n), ch: float64(u.Height()) / float64(n),
		cells: make([][]int32, n*n),
	}
	for i, r := range recs {
		cx0, cx1 := g.cellX(r.Rect.XLo), g.cellX(r.Rect.XHi)
		cy0, cy1 := g.cellY(r.Rect.YLo), g.cellY(r.Rect.YHi)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				g.cells[cy*n+cx] = append(g.cells[cy*n+cx], int32(i))
			}
		}
	}
	return g
}

// cellX maps an x coordinate to its cell column, clamped into the
// grid. It is monotone, so a rectangle covers exactly the columns
// cellX(XLo)..cellX(XHi) and any point inside it falls in that range.
func (g *grid) cellX(x geom.Coord) int { return cellIndex(float64(x)-g.x0, g.cw, g.n) }

// cellY is cellX for rows.
func (g *grid) cellY(y geom.Coord) int { return cellIndex(float64(y)-g.y0, g.ch, g.n) }

// cellIndex clamps offset/size into [0, n-1]; a degenerate axis
// (size 0, every record on one line) maps everything to cell 0.
func cellIndex(offset, size float64, n int) int {
	f := offset / size
	switch {
	case !(f > 0): // negative, zero, or NaN from 0/0
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}

// join reports every pair (probe[i], indexed record) whose rectangles
// intersect, exactly once: a pair meets in every cell both rectangles
// overlap, and is reported only in the cell holding the lower-left
// corner of their intersection.
func (g *grid) join(probe []geom.Record, emit func(p, r geom.Record)) {
	if len(g.recs) == 0 {
		return
	}
	for _, p := range probe {
		cx0, cx1 := g.cellX(p.Rect.XLo), g.cellX(p.Rect.XHi)
		cy0, cy1 := g.cellY(p.Rect.YLo), g.cellY(p.Rect.YHi)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				for _, i := range g.cells[cy*g.n+cx] {
					r := g.recs[i]
					if !p.Rect.Intersects(r.Rect) {
						continue
					}
					if g.cellX(max(p.Rect.XLo, r.Rect.XLo)) == cx && g.cellY(max(p.Rect.YLo, r.Rect.YLo)) == cy {
						emit(p, r)
					}
				}
			}
		}
	}
}

// referenceJoin computes the full answer of left ⋈ right.
func referenceJoin(left, right []geom.Record) joinRef {
	var ref joinRef
	newGrid(right).join(left, func(l, r geom.Record) { ref.add(l.ID, r.ID) })
	return ref
}

// windowRef is the reference answer of one window query: how many
// records intersect the window and the sum of their IDs.
type windowRef struct {
	Records int64
	IDSum   uint64
}

// referenceWindow scans recs linearly for the records intersecting win.
func referenceWindow(recs []geom.Record, win geom.Rect) windowRef {
	var ref windowRef
	for _, r := range recs {
		if r.Rect.Intersects(win) {
			ref.Records++
			ref.IDSum += uint64(r.ID)
		}
	}
	return ref
}

// stripeOf returns which of the stripes cut by the ascending bounds
// owns x: stripe i is [bounds[i-1], bounds[i]), the outer two
// unbounded — the half-open intervals a striped fleet is started with.
func stripeOf(bounds []geom.Coord, x geom.Coord) int {
	i := 0
	for i < len(bounds) && x >= bounds[i] {
		i++
	}
	return i
}

// prefixTable is the reference for joins racing appends. counts[s][k]
// is the number of pairs of (base ∪ batches[:k]) ⋈ right whose
// reference point — the larger of the two left edges — lies in stripe
// s: what shard s of a striped fleet answers once it has applied k
// batches. A single process is the one-stripe case (no bounds).
type prefixTable struct {
	counts [][]int64
}

// newPrefixTable joins the base once and then each batch on its own
// against the same grid, so the table costs one join of everything
// ever appended instead of one join per prefix.
func newPrefixTable(base []geom.Record, batches [][]geom.Record, right []geom.Record, bounds []geom.Coord) *prefixTable {
	g := newGrid(right)
	t := &prefixTable{counts: make([][]int64, len(bounds)+1)}
	for s := range t.counts {
		t.counts[s] = make([]int64, len(batches)+1)
	}
	count := func(k int, recs []geom.Record) {
		g.join(recs, func(l, r geom.Record) {
			t.counts[stripeOf(bounds, max(l.Rect.XLo, r.Rect.XLo))][k]++
		})
	}
	count(0, base)
	for k, b := range batches {
		for s := range t.counts {
			t.counts[s][k+1] = t.counts[s][k]
		}
		count(k+1, b)
	}
	return t
}

// total returns the fleet-wide pair count once every stripe has
// applied k batches.
func (t *prefixTable) total(k int) int64 {
	var n int64
	for s := range t.counts {
		n += t.counts[s][k]
	}
	return n
}

// explains reports whether pairs is an answer a correct fleet can
// give to a join that was sent after lo batches were acknowledged and
// answered before more than hi were sent: each shard pins its own
// epoch, so each independently reflects some prefix in [lo, hi], and
// the fleet's count is the sum. whole is true when one common prefix
// explains it (every shard pinned the same batch count).
func (t *prefixTable) explains(pairs int64, lo, hi int) (ok, whole bool) {
	hi = min(hi, len(t.counts[0])-1)
	for k := lo; k <= hi; k++ {
		if t.total(k) == pairs {
			return true, true
		}
	}
	return t.sumsTo(0, pairs, lo, hi), false
}

// sumsTo tries every per-stripe prefix choice from stripe s on. The
// in-flight range is a handful of batches and fleets have three
// shards, so the search is a few dozen sums.
func (t *prefixTable) sumsTo(s int, rest int64, lo, hi int) bool {
	if s == len(t.counts) {
		return rest == 0
	}
	for k := lo; k <= hi; k++ {
		if t.sumsTo(s+1, rest-t.counts[s][k], lo, hi) {
			return true
		}
	}
	return false
}
