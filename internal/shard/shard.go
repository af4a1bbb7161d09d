// Package shard scales the query service across processes: it cuts a
// catalog into K stripe shards along x and routes queries over the
// shard fleet, merging per-shard streams and accounting into single
// responses that are bit-for-bit equivalent to a single process run.
//
// The unit of sharding is the same vertical stripe the parallel
// engine (internal/parallel) sweeps concurrently: boundaries are
// quantiles of sampled record x-centers, so skewed inputs still
// produce balanced shards. Sharding reuses the engine's two rules:
//
//   - Record placement: a shard loads every record whose x-interval
//     overlaps its stripe. Records contained in one stripe land on
//     exactly one shard; boundary-crossing records are replicated
//     into each shard they overlap (Plan.Assign reports how many).
//   - Pair ownership: a join pair is reported only by the shard whose
//     half-open interval [lo, hi) contains the pair's reference point
//     — the lower-x corner of the rectangle intersection, max of the
//     two left edges. Both rectangles contain that point, so the
//     owning shard is guaranteed to hold both records and find the
//     pair; every other shard that finds it drops it. Window queries
//     use the record's own XLo the same way. The merged result set is
//     therefore exact and duplicate-free with no cross-shard
//     coordination, for any join algorithm the shard runs.
//
// Plan computes and describes the stripes; Interval is one shard's
// ownership range (sjserved's -stripe flag); Router scatters a
// request to K sjserved shard endpoints and gathers their frame
// streams; Service is the HTTP front that makes a Router a drop-in
// replacement for a single sjserved (cmd/sjrouter wraps it).
package shard

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"unijoin/internal/geom"
)

// Interval is one shard's half-open ownership range [Lo, Hi) on the
// x-axis, with -Inf/+Inf sentinels on the outer shards so the
// intervals of a plan tile the whole line. It decides three questions
// for a shard: which records to load, which records a window query
// reports, and which join pairs to report.
type Interval struct {
	Lo, Hi geom.Coord
}

// Everything is the interval of an unsharded process: it loads and
// owns all records and all pairs.
func Everything() Interval {
	return Interval{Lo: geom.Coord(math.Inf(-1)), Hi: geom.Coord(math.Inf(1))}
}

// Unbounded reports whether the interval is (-Inf, +Inf), i.e. the
// process is not restricted to a stripe.
func (iv Interval) Unbounded() bool {
	return math.IsInf(float64(iv.Lo), -1) && math.IsInf(float64(iv.Hi), 1)
}

// Contains reports whether x falls in [Lo, Hi).
func (iv Interval) Contains(x geom.Coord) bool { return x >= iv.Lo && x < iv.Hi }

// Loads reports whether a shard with this interval must keep the
// record: its x-interval overlaps the stripe, so some pair or window
// answer owned here may involve it.
func (iv Interval) Loads(r geom.Rect) bool { return r.XHi >= iv.Lo && r.XLo < iv.Hi }

// OwnsRecord reports whether this shard reports the record in window
// (selection) queries: exactly one shard of a plan contains a
// record's left edge, and that shard is guaranteed to have loaded it.
func (iv Interval) OwnsRecord(r geom.Rect) bool { return iv.Contains(r.XLo) }

// OwnsPair reports whether this shard reports the join pair of two
// rectangles with the given left edges: the reference point — the
// larger of the two — falls in the interval. Exactly one shard of a
// plan owns each pair, and ownership implies both records overlap the
// stripe and were loaded.
func (iv Interval) OwnsPair(aXLo, bXLo geom.Coord) bool {
	ref := aXLo
	if bXLo > ref {
		ref = bXLo
	}
	return iv.Contains(ref)
}

// Slice returns the records of recs a shard with this interval loads,
// in input order. The unbounded interval returns recs itself.
func (iv Interval) Slice(recs []geom.Record) []geom.Record {
	if iv.Unbounded() {
		return recs
	}
	out := make([]geom.Record, 0, len(recs))
	for _, r := range recs {
		if iv.Loads(r.Rect) {
			out = append(out, r)
		}
	}
	return out
}

// ParseInterval parses the "lo:hi" syntax of sjserved's -stripe flag.
// Either side may be empty for an unbounded edge shard: ":250" is the
// first stripe, "700:" the last, "250:700" an inner one.
func ParseInterval(s string) (Interval, error) {
	loStr, hiStr, ok := strings.Cut(s, ":")
	if !ok {
		return Interval{}, fmt.Errorf("shard: interval %q: want lo:hi (either side may be empty)", s)
	}
	iv := Everything()
	if strings.TrimSpace(loStr) != "" {
		f, err := strconv.ParseFloat(strings.TrimSpace(loStr), 32)
		if err != nil {
			return Interval{}, fmt.Errorf("shard: interval %q: bad lower bound: %w", s, err)
		}
		iv.Lo = geom.Coord(f)
	}
	if strings.TrimSpace(hiStr) != "" {
		f, err := strconv.ParseFloat(strings.TrimSpace(hiStr), 32)
		if err != nil {
			return Interval{}, fmt.Errorf("shard: interval %q: bad upper bound: %w", s, err)
		}
		iv.Hi = geom.Coord(f)
	}
	if !(iv.Lo < iv.Hi) {
		return Interval{}, fmt.Errorf("shard: interval %q: lower bound must be below upper", s)
	}
	return iv, nil
}

// String formats the interval in the syntax ParseInterval accepts.
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
