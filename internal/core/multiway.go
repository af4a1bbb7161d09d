package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"unijoin/internal/geom"
	"unijoin/internal/sweep"
)

// MultiwayResult reports a k-way intersection join.
type MultiwayResult struct {
	Tuples       int64    // result tuples (k-way intersections)
	Stages       []Result // one Result per pairwise stage
	Intermediate []int64  // intermediate cardinality after each stage
}

// MultiwayPQ computes the k-way intersection join of the given inputs
// (k >= 2): all tuples (r1, ..., rk), one record per input, whose
// rectangles have a common intersection. emit receives the IDs in
// input order.
//
// As described in Section 4 of the paper, the output of a two-way PQ
// join is fed into another join with the next input: a pair is emitted
// by the sweep exactly when the later of its two rectangles arrives,
// so the stream of pairwise intersections is itself sorted by lower y
// and can enter the next sweep directly, with no intermediate sort.
// The intermediate tuples are materialized (the paper pipelines them;
// the ID table needed to reconstruct tuples is the same size, so the
// memory asymptotics are unchanged and the I/O is identical: none).
//
// The context threads through every pipeline stage: each stage's sort,
// scan, and sweep polls it, so canceling the context aborts the whole
// multiway pipeline at the stage it is in.
func MultiwayPQ(ctx context.Context, opts Options, inputs []Input, emit func(ids []geom.ID)) (MultiwayResult, error) {
	var mres MultiwayResult
	if len(inputs) < 2 {
		return mres, fmt.Errorf("core: multiway join needs at least 2 inputs, got %d", len(inputs))
	}
	if opts.Own != nil {
		return mres, fmt.Errorf("core: Options.Own on a multiway join: %w", errors.ErrUnsupported)
	}

	// current holds the running intersection tuples: rectangle plus the
	// IDs contributing to it. It is y-sorted by construction.
	type tuple struct {
		rect geom.Rect
		ids  []geom.ID
	}
	var current []tuple

	// Each stage is the unified join with a record-pair collector for
	// its sink (a tuple needs the rectangles). Pair callbacks are not
	// meaningful mid-pipeline, so the stages run without them.
	opts.Emit, opts.EmitBatch = nil, nil
	stage := func(name string, body func(ctx context.Context, o Options, res *Result) error) error {
		res, err := run(ctx, opts, name, body)
		if err == nil {
			mres.Stages = append(mres.Stages, res)
			mres.Intermediate = append(mres.Intermediate, int64(len(current)))
		}
		return err
	}

	// Stage 1: inputs[0] x inputs[1], the standard PQ join.
	err := stage("PQ", func(ctx context.Context, o Options, res *Result) error {
		return joinInputs(ctx, o, res, inputs[0], inputs[1], func(ra, rb geom.Record) {
			if in, ok := ra.Rect.Intersection(rb.Rect); ok {
				current = append(current, tuple{rect: in, ids: []geom.ID{ra.ID, rb.ID}})
			}
		})
	})
	if err != nil {
		return mres, err
	}

	// Later stages: the intermediate tuples (already y-sorted; under a
	// window their records were filtered, so they are not again)
	// against the next input.
	for _, next := range inputs[2:] {
		recs := make([]geom.Record, len(current))
		for i, tp := range current {
			recs[i] = geom.Record{Rect: tp.rect, ID: geom.ID(i)}
		}
		prev := current
		current = nil
		err := stage("PQ-stage", func(ctx context.Context, o Options, res *Result) error {
			side, err := prepared(ctx, o, res, next, Input{})
			if err != nil {
				return err
			}
			return sweepSides(ctx, o, res, pqSide{src: sweep.NewSliceSource(recs)}, side, func(ri, rb geom.Record) {
				if in, ok := ri.Rect.Intersection(rb.Rect); ok {
					ids := slices.Concat(prev[ri.ID].ids, []geom.ID{rb.ID})
					current = append(current, tuple{rect: in, ids: ids})
				}
			})
		})
		if err != nil {
			return mres, err
		}
	}

	mres.Tuples = int64(len(current))
	if emit != nil {
		for _, tp := range current {
			emit(tp.ids)
		}
	}
	return mres, nil
}
