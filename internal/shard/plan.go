package shard

import (
	"fmt"
	"math"

	"unijoin/internal/geom"
	"unijoin/internal/parallel"
)

// Plan is a sharding of the universe into K stripes: the K-1 internal
// boundaries. It answers what each shard's ownership interval is.
// Plans are immutable and safe for concurrent use.
type Plan struct {
	part   *parallel.Partitioner
	bounds []geom.Coord
}

// NewPlan cuts the universe into at most k stripes with boundaries at
// x-center quantiles of the given inputs — the same sample-balanced
// boundaries the parallel engine sweeps, lifted to process
// granularity. Heavily clustered inputs may resolve fewer than k
// stripes (boundaries are deduplicated, never degenerate).
func NewPlan(universe geom.Rect, k int, inputs ...[]geom.Record) *Plan {
	part := parallel.NewPartitioner(universe, k, inputs...)
	return &Plan{part: part, bounds: part.Boundaries()}
}

// PlanFromBoundaries reconstructs a plan from its boundary list
// (strictly increasing; empty for a single shard) — how a shard or
// router rebuilds the planner's decision from configuration.
func PlanFromBoundaries(universe geom.Rect, bounds []geom.Coord) (*Plan, error) {
	part, err := parallel.PartitionerFromBoundaries(universe, bounds)
	if err != nil {
		return nil, err
	}
	return &Plan{part: part, bounds: part.Boundaries()}, nil
}

// Shards returns the shard count K.
func (p *Plan) Shards() int { return len(p.bounds) + 1 }

// Boundaries returns a copy of the K-1 internal boundaries.
func (p *Plan) Boundaries() []geom.Coord { return append([]geom.Coord(nil), p.bounds...) }

// Interval returns shard i's ownership range [lo, hi), with infinite
// sentinels on the outer shards.
func (p *Plan) Interval(i int) Interval {
	lo, hi := p.part.OwnerRange(i)
	return Interval{Lo: lo, Hi: hi}
}

// Validate checks that a set of shard intervals tiles the line: in
// increasing order, each shard's Hi is the next shard's Lo, the first
// Lo is -Inf and the last Hi is +Inf. The router uses it to verify a
// fleet's -stripe configuration covers every reference point exactly
// once before serving traffic.
func Validate(intervals []Interval) error {
	if len(intervals) == 0 {
		return fmt.Errorf("shard: no intervals")
	}
	if !math.IsInf(float64(intervals[0].Lo), -1) {
		return fmt.Errorf("shard: first interval %s does not extend to -Inf", intervals[0])
	}
	for i, iv := range intervals {
		if !(iv.Lo < iv.Hi) {
			return fmt.Errorf("shard: interval %d (%s) is empty", i, iv)
		}
		if i > 0 && intervals[i-1].Hi != iv.Lo {
			return fmt.Errorf("shard: intervals %d (%s) and %d (%s) do not abut",
				i-1, intervals[i-1], i, iv)
		}
	}
	last := intervals[len(intervals)-1]
	if !math.IsInf(float64(last.Hi), 1) {
		return fmt.Errorf("shard: last interval %s does not extend to +Inf", last)
	}
	return nil
}
