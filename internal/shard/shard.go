// Package shard scales the query service across processes: it cuts a
// catalog into K stripe shards along x and routes queries over the
// shard fleet, merging per-shard streams and accounting into single
// responses that are bit-for-bit equivalent to a single process run.
//
// The unit of sharding is the same vertical stripe the parallel
// engine (internal/parallel) sweeps concurrently: boundaries are
// quantiles of sampled record x-centers, so skewed inputs still
// produce balanced shards. Sharding reuses the engine's two rules, and
// the second buys it a third:
//
//   - Record placement: a shard loads every record whose x-interval
//     overlaps its stripe. Records contained in one stripe land on
//     exactly one shard; boundary-crossing records are replicated
//     into each shard they overlap (Interval.Slice picks them).
//   - Pair ownership: a join pair is reported only by the shard whose
//     half-open interval [lo, hi) contains the pair's reference point
//     — the lower-x corner of the rectangle intersection, max of the
//     two left edges, and under a query window max of those and the
//     window's left edge. Every rectangle involved contains that
//     point, so the owning shard is guaranteed to hold both records and
//     find the pair; every other shard that finds it drops it. Window
//     queries own a record the same way, by the left edge of record ∩
//     window. The merged result set is therefore exact and
//     duplicate-free with no cross-shard coordination, for any join
//     algorithm the shard runs.
//   - Scatter pruning: under a window the reference point lies inside
//     the window's x-extent, so a shard whose interval does not meet
//     that extent owns no answer. The router sends a windowed query or
//     join only to the shards whose interval Loads the window — known
//     from the stripe table Router.Verify validated — and an
//     unwindowed one to all. A shard needs no hint: it applies the
//     clipped rule whenever a request carries a window, so the shares
//     of shards asked directly still tile the answer.
//
// The rule is applied where the rectangles are, not where the results
// are streamed: a shard's server hands its interval to the query
// (Query.Owned) and each join kernel tests geom.Interval.OwnsPair as
// it reports — the parallel engine as one more clamp on the range its
// stripes already test, and not at all for the records lying inside
// the shard. A shard therefore emits and counts owned pairs only, and
// the rule needs no ID → geometry lookup, so it holds for any IDs,
// repeated ones included.
//
// Plan computes and describes the stripes; Interval is one shard's
// ownership range (sjserved's -stripe flag); Router scatters a
// request to the sjserved shard endpoints it concerns and gathers
// their frame streams; Service is the HTTP front that makes a Router
// a drop-in replacement for a single sjserved — the Router is the
// backend of the same internal/httpapi handler sjserved answers
// through (cmd/sjrouter wraps it).
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
// intervals of a plan tile the whole line. The type and its rules
// (Loads, OwnsRecord, OwnsPair, Slice) are geom.Interval's: the join
// kernels apply the same definition a plan is cut by, and the router
// prunes its scatter by.
type Interval = geom.Interval

// Everything is the interval of an unsharded process: it loads and
// owns all records and all pairs.
func Everything() Interval {
	return Interval{Lo: geom.Coord(math.Inf(-1)), Hi: geom.Coord(math.Inf(1))}
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
