package unijoin

import (
	"context"
	"fmt"

	"unijoin/internal/core"
	"unijoin/internal/geom"
	"unijoin/internal/ingest"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// windowPollEvery is how many records a window scan — of the record
// stream or of a delta run's slab — processes between context polls;
// cancellation latency is bounded by this many record tests (or one
// R-tree node).
const windowPollEvery = 4096

// WindowQuery reports every record of the relation whose MBR
// intersects win, the selection counterpart of a join's Window option
// and the second query class the query service exposes. It returns
// the number of matching records; emit (optional) receives each one.
//
// An indexed relation answers through its R-tree, descending only
// into subtrees that intersect win, and then from the slab of its
// delta run (the records appended since the tree was packed) that win
// cuts; a non-indexed relation scans its record stream. Both paths
// charge their page accesses to the workspace's counters as usual,
// poll ctx (canceling it aborts the query with ErrCanceled), and
// report matches in a deterministic order — but the two orders differ,
// so callers that need a canonical order must sort.
func (r *Relation) WindowQuery(ctx context.Context, win Rect, emit func(Record)) (int64, error) {
	if r == nil || r.log == nil {
		return 0, fmt.Errorf("%w: window query", ErrNilRelation)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Pin the version once: the scan or traversal below runs wholly
	// against it, so concurrent appends are invisible to this query.
	return windowQueryVersion(ctx, r.snapshot(), win, emit)
}

// WindowQuery is Relation.WindowQuery answered from the pinned
// version, so a handler can report the window result and the
// relation's properties from one epoch.
func (p PinnedView) WindowQuery(ctx context.Context, win Rect, emit func(Record)) (int64, error) {
	if p.v == nil {
		return 0, fmt.Errorf("%w: window query", ErrNilRelation)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return windowQueryVersion(ctx, p.v, win, emit)
}

// windowQueryVersion runs the window selection against one pinned
// version.
func windowQueryVersion(ctx context.Context, v *ingest.Version, win Rect, emit func(Record)) (int64, error) {
	if !win.Valid() || !v.MBR.Valid() || !win.Intersects(v.MBR) {
		return 0, nil
	}
	if v.Tree == nil {
		return windowScan(ctx, v.File, win, emit)
	}
	count, err := windowTree(ctx, v.Tree, win, emit)
	if err != nil {
		return count, err
	}
	for i, rec := range v.DeltaRun().Slab(win) {
		if i%windowPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return count, core.WrapCanceled(err)
			}
		}
		if rec.Rect.Intersects(win) {
			count++
			if emit != nil {
				emit(rec)
			}
		}
	}
	return count, nil
}

// windowTree answers through the R-tree's cancellable traversal,
// counting matches as they stream by.
func windowTree(ctx context.Context, t *rtree.Tree, win geom.Rect, emit func(Record)) (int64, error) {
	var count int64
	err := t.QueryCtx(ctx, rtree.StoreReader{Store: t.Store()}, win, func(rec geom.Record) {
		count++
		if emit != nil {
			emit(rec)
		}
	})
	return count, core.WrapCanceled(err)
}

// windowScan filters a sequential scan of the record stream.
func windowScan(ctx context.Context, f *iosim.File, win geom.Rect, emit func(Record)) (int64, error) {
	rd := stream.NewReader(f, stream.Records)
	var count, seen int64
	for {
		if seen%windowPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return count, core.WrapCanceled(err)
			}
		}
		rec, ok, err := rd.Next()
		if err != nil {
			return count, err
		}
		if !ok {
			return count, nil
		}
		seen++
		if rec.Rect.Intersects(win) {
			count++
			if emit != nil {
				emit(rec)
			}
		}
	}
}
