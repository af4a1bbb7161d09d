package geom

import (
	"math"
	"strconv"
)

// Interval is a half-open range [Lo, Hi) on the x-axis: the slice of
// the line one stripe owns — a shard of a fleet (internal/shard, with
// -Inf/+Inf sentinels on the outer shards so a plan's intervals tile
// the line) or a partition of the parallel engine. It decides three
// questions for its owner: which records to hold, which records a
// window query reports, and which join pairs to report. The ownership
// rule lives here and nowhere else: every serial join kernel, in one
// process or across a fleet, asks OwnsPair; the parallel engine asks
// Contains of each record's clipped left edge once per stripe, which
// decides the pairs the stripe compares at all; and a shard's window
// handler asks OwnsRecord.
//
// The rule is a reference point: one x that lies in every rectangle
// involved — the records and, when the query has one, its window — so
// the one interval of a tiling that contains it is guaranteed to hold
// (Loads) the records and to meet the window. Both tests take the
// window's left edge, NoWindow when there is none. An interval that
// does not meet a window's x-extent therefore owns none of its
// answers, which is what lets a router leave that shard out.
type Interval struct {
	Lo, Hi Coord
}

// Unbounded reports whether the interval is (-Inf, +Inf), i.e. its
// owner is not restricted to a stripe.
func (iv Interval) Unbounded() bool {
	return math.IsInf(float64(iv.Lo), -1) && math.IsInf(float64(iv.Hi), 1)
}

// Contains reports whether x falls in [Lo, Hi).
func (iv Interval) Contains(x Coord) bool { return x >= iv.Lo && x < iv.Hi }

// Loads reports whether the owner of this interval must hold the
// record: its x-interval overlaps the stripe, so some pair or window
// answer owned here may involve it.
func (iv Interval) Loads(r Rect) bool { return r.XHi >= iv.Lo && r.XLo < iv.Hi }

// NoWindow is the left edge to hand OwnsRecord and OwnsPair for a
// query without a window: clipping to -Inf leaves the point where it
// was.
var NoWindow = Coord(math.Inf(-1))

// OwnsRecord reports whether this interval reports the record in a
// window (selection) query whose window starts at winXLo: the
// record's reference point — the lower-x corner of record ∩ window,
// the larger of the two left edges — falls in the interval. The point
// lies in the record and in the window's x-extent, so exactly one
// interval of a tiling owns each answer, its owner holds the record,
// and it meets the window.
func (iv Interval) OwnsRecord(r Rect, winXLo Coord) bool {
	return iv.Contains(max(r.XLo, winXLo))
}

// OwnsPair reports whether this interval reports the join pair of two
// intersecting rectangles with the given left edges, under a window
// starting at winXLo that both intersect (NoWindow: none): the pair's
// reference point — the lower-x corner of the intersection clipped to
// the window, the largest of the three left edges — falls in the
// interval. The three x-extents meet pairwise, so the point lies in
// all of them: exactly one interval of a tiling owns each pair, its
// owner holds both records and finds the pair, and it meets the
// window.
func (iv Interval) OwnsPair(aXLo, bXLo, winXLo Coord) bool {
	return iv.Contains(max(aXLo, bXLo, winXLo))
}

// Slice returns the records of recs the owner of this interval holds,
// in input order. The unbounded interval returns recs itself.
func (iv Interval) Slice(recs []Record) []Record {
	if iv.Unbounded() {
		return recs
	}
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if iv.Loads(r.Rect) {
			out = append(out, r)
		}
	}
	return out
}

// String formats the interval as "lo:hi" with an infinite side left
// empty — the syntax of sjserved's -stripe flag (shard.ParseInterval).
func (iv Interval) String() string {
	var lo, hi string
	if !math.IsInf(float64(iv.Lo), -1) {
		lo = strconv.FormatFloat(float64(iv.Lo), 'g', -1, 32)
	}
	if !math.IsInf(float64(iv.Hi), 1) {
		hi = strconv.FormatFloat(float64(iv.Hi), 'g', -1, 32)
	}
	return lo + ":" + hi
}
