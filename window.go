package unijoin

import (
	"context"
	"fmt"

	"unijoin/internal/core"
	"unijoin/internal/ingest"
)

// windowPollEvery is how many records of the slab a window query tests
// between context polls; cancellation latency is bounded by this many
// record tests.
const windowPollEvery = 4096

// WindowQuery reports every record of the relation whose MBR
// intersects win, the selection counterpart of a join's Window option
// and the second query class the query service exposes. It returns
// the number of matching records; emit (optional) receives each one.
//
// Every relation, indexed or not, answers from its prepared run (see
// internal/ingest): win cuts the run to the slab of records whose
// lower y lies within the window's height plus the run's tallest
// record, and each is tested against win. The work is that y-band of
// the relation, not the window's area; a warm query reads no page.
// Canceling ctx aborts with ErrCanceled, before a cold build reads the
// log. Matches are reported in run order, ascending lower y.
func (r *Relation) WindowQuery(ctx context.Context, win Rect, emit func(Record)) (int64, error) {
	if r == nil || r.log == nil {
		return 0, fmt.Errorf("%w: window query", ErrNilRelation)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Pin the version once: the scan below runs wholly against it, so
	// concurrent appends are invisible to this query.
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
// version: the exact test over the slab of its prepared run that win
// cuts.
func windowQueryVersion(ctx context.Context, v *ingest.Version, win Rect, emit func(Record)) (int64, error) {
	if !win.Valid() || !v.MBR.Valid() || !win.Intersects(v.MBR) {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, core.WrapCanceled(err)
	}
	run, _, err := v.Prepared()
	if err != nil {
		return 0, err
	}
	var count int64
	for i, rec := range run.Slab(win) {
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
