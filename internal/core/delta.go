package core

import (
	"context"

	"unijoin/internal/geom"
	"unijoin/internal/rtree"
	"unijoin/internal/sweep"
)

// This file is where a live relation's two halves meet again: the
// packed tree over the base and the resident y-sorted run over the
// records appended since (Input.Delta). Both are sorted inputs in the
// paper's sense, so the unified join needs nothing new — the run is
// one more source merged into the sweep's input.

// deltaSource is the y-sorted source over an input's delta run. Under
// a window only the run's slab is visited, filtered to the records
// that intersect the window.
func deltaSource(ctx context.Context, run geom.Run, window geom.Rect, useWindow bool) sweep.Source {
	if !useWindow {
		return sweep.NewSliceSource(run.Recs)
	}
	return &windowFilterSource{ctx: ctx, src: sweep.NewSliceSource(run.Slab(window)), window: window}
}

// mergedSource merges two y-sorted sources into one, ordered by
// geom.ByLowerY.
type mergedSource struct {
	a, b     sweep.Source
	ra, rb   geom.Record
	okA, okB bool
	primed   bool
}

// Next implements sweep.Source.
func (m *mergedSource) Next() (rec geom.Record, ok bool, err error) {
	if !m.primed {
		m.primed = true
		if m.ra, m.okA, err = m.a.Next(); err != nil {
			return geom.Record{}, false, err
		}
		if m.rb, m.okB, err = m.b.Next(); err != nil {
			return geom.Record{}, false, err
		}
	}
	switch {
	case m.okA && (!m.okB || geom.ByLowerY(m.ra, m.rb) <= 0):
		rec = m.ra
		m.ra, m.okA, err = m.a.Next()
	case m.okB:
		rec = m.rb
		m.rb, m.okB, err = m.b.Next()
	default:
		return geom.Record{}, false, nil
	}
	if err != nil {
		return geom.Record{}, false, err
	}
	return rec, true, nil
}

// TreeJoin is the shape of the algorithms that traverse two indexes in
// step and so need both inputs fully indexed: ST and BFRJ.
type TreeJoin func(ctx context.Context, opts Options, ta, tb *rtree.Tree) (Result, error)

// Indexed runs join on two indexed inputs either of which may carry a
// delta run. With a = base(a) ∪ Δa and b = base(b) ∪ Δb, the pair set
// splits into three disjoint parts: base(a) ⋈ base(b), which is join's
// on the two packed trees, and the remainder Δa ⋈ b and base(a) ⋈ Δb,
// which is PQ's — it takes a run as readily as a tree. No pair can
// come out of two parts, so nothing is deduplicated; the window, the
// Emit/EmitBatch callbacks and cancellation apply to each part, and
// the returned Result is join's with the remainder's counters added.
// Two inputs with empty deltas run join and nothing else.
func Indexed(ctx context.Context, opts Options, join TreeJoin, a, b Input) (Result, error) {
	res, err := join(ctx, opts, a.Tree, b.Tree)
	if err != nil {
		return Result{}, err
	}
	var rest [][2]Input
	if len(a.Delta.Recs) > 0 {
		rest = append(rest, [2]Input{{Delta: a.Delta}, {Tree: b.Tree, Delta: b.Delta}})
	}
	if len(b.Delta.Recs) > 0 {
		rest = append(rest, [2]Input{{Tree: a.Tree}, {Delta: b.Delta}})
	}
	for _, in := range rest {
		part, err := PQ(ctx, opts, in[0], in[1])
		if err != nil {
			return Result{}, err
		}
		res.add(part)
	}
	return res, nil
}

// add folds the report of a join over another part of the same pair
// set into r: counters and times sum, peak footprints take the larger
// (the parts run one after the other).
func (r *Result) add(part Result) {
	r.Pairs += part.Pairs
	r.Sweep.Pairs += part.Sweep.Pairs
	r.Sweep.Comparisons += part.Sweep.Comparisons
	r.Sweep.MaxLen = max(r.Sweep.MaxLen, part.Sweep.MaxLen)
	r.Sweep.MaxBytes = max(r.Sweep.MaxBytes, part.Sweep.MaxBytes)
	r.ScannerMaxBytes = max(r.ScannerMaxBytes, part.ScannerMaxBytes)
	r.SweepMaxBytes = max(r.SweepMaxBytes, part.SweepMaxBytes)
	r.PageRequests += part.PageRequests
	r.LogicalRequests += part.LogicalRequests
	r.IO = r.IO.Add(part.IO)
	r.IODirect = r.IODirect.Add(part.IODirect)
	r.HostCPU += part.HostCPU
	r.PartitionWall += part.PartitionWall
	r.SweepWall += part.SweepWall
	r.SortStats = append(r.SortStats, part.SortStats...)
}
