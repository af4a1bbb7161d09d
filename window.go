package unijoin

import (
	"context"
	"fmt"

	"unijoin/internal/core"
)

// windowPollEvery is how many records of the slab a window query tests
// between context polls; cancellation latency is bounded by this many
// record tests.
const windowPollEvery = 4096

// WindowQuery reports every record of the relation whose MBR
// intersects win, the selection counterpart of a join's Window option
// and the second query class the query service exposes. It returns
// the number of matching records; emit (optional) receives each one.
// It pins the relation's current version once (Pin), so concurrent
// appends are invisible to the query.
func (r *Relation) WindowQuery(ctx context.Context, win Rect, emit func(Record)) (int64, error) {
	if r == nil || r.log == nil {
		return 0, fmt.Errorf("%w: window query", ErrNilRelation)
	}
	return r.Pin().WindowQuery(ctx, win, emit)
}

// WindowQuery is Relation.WindowQuery answered from the pinned
// version, so a handler can report the window result and the
// relation's properties from one epoch.
//
// Every relation, indexed or not, answers from its prepared run (see
// internal/ingest): win cuts the run to the slab of records whose
// lower y lies within the window's height plus the run's tallest
// record, and each is tested against win. The work is that y-band of
// the relation, not the window's area, and no page is read; the first
// query on an appended epoch merges the run's two halves first.
// Canceling ctx aborts with ErrCanceled. Matches are reported in run
// order, ascending lower y.
func (p PinnedView) WindowQuery(ctx context.Context, win Rect, emit func(Record)) (int64, error) {
	if p.v == nil {
		return 0, fmt.Errorf("%w: window query", ErrNilRelation)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !win.Valid() || !p.v.MBR.Valid() || !win.Intersects(p.v.MBR) {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, core.WrapCanceled(err)
	}
	run, _ := p.v.Prepared()
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
