package core

import (
	"context"
	"slices"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
)

// ST runs the synchronized R-tree traversal of Brinkhoff, Kriegel, and
// Seeger [8] on two indexed inputs: a depth-first traversal over pairs
// of nodes whose bounding rectangles intersect, recursing on
// intersecting child pairs and reporting intersections at the leaves.
//
// Per the original's optimizations (followed by the paper, Section
// 3.3): node pairs restrict their entry lists to the intersection of
// the two nodes' bounding rectangles before matching, and matching
// within a node pair uses the Forward-Sweep algorithm over the entries
// sorted by lower y. Nodes are read through a shared LRU buffer pool
// (22 MB in the paper); Table 4's "page requests" for ST are the pool
// misses, and nodes revisited by the depth-first traversal account for
// the 1.14-1.63x overshoot beyond the optimal once the trees outgrow
// the pool.
//
// Trees of different heights are handled by descending only the taller
// tree until levels match. With Options.Window set, node pairs that
// cannot contain window records are pruned and leaf matches are
// filtered to records intersecting the window on both sides.
func ST(ctx context.Context, opts Options, ta, tb *rtree.Tree) (Result, error) {
	if ta == nil || tb == nil {
		return Result{}, needsIndexErr("ST")
	}
	return run(ctx, opts, "ST", func(ctx context.Context, o Options, res *Result) error {
		pool := iosim.NewBufferPoolBytes(o.Store, o.BufferPoolBytes)
		height := ta.Height()
		if tb.Height() > height {
			height = tb.Height()
		}
		j := &stJoin{ctx: ctx, o: o, ta: ta, tb: tb, pool: pool, res: res,
			scratch: make([][2][]rtree.Entry, height+1)}
		// The traversal is the whole algorithm — ST has no preparation
		// phase, so the trace's partition time stays zero.
		sweepStart := time.Now()
		if ta.NumRecords() > 0 && tb.NumRecords() > 0 && ta.MBR().Intersects(tb.MBR()) {
			if err := j.joinNodes(ta.Root(), tb.Root()); err != nil {
				return err
			}
		}
		res.SweepWall = time.Since(sweepStart)
		res.PageRequests = pool.Misses()
		res.LogicalRequests = pool.Requests()
		return nil
	})
}

type stJoin struct {
	ctx  context.Context
	o    Options
	ta   *rtree.Tree
	tb   *rtree.Tree
	pool *iosim.BufferPool
	res  *Result
	// scratch holds per-level entry buffers for matchEntries: the
	// traversal is depth-first, so at most one node pair per level is
	// active and buffers can be reused without allocation.
	scratch [][2][]rtree.Entry
	pairs   []entryPair
}

// entryPair is a matched pair of entries from the two nodes.
type entryPair struct {
	a, b rtree.Entry
}

// joinNodes processes one pair of nodes (by page). The per-node-pair
// cancellation check bounds the work after a cancel to one pair of
// pages.
func (j *stJoin) joinNodes(pa, pb iosim.PageID) error {
	if err := j.ctx.Err(); err != nil {
		return err
	}
	var na, nb rtree.Node
	if err := j.ta.ReadNode(j.pool, pa, &na); err != nil {
		return err
	}
	if err := j.tb.ReadNode(j.pool, pb, &nb); err != nil {
		return err
	}
	// Window pruning: a node whose MBR misses the window cannot hold a
	// qualifying record.
	if w := j.o.Window; w != nil && (!na.MBR().Intersects(*w) || !nb.MBR().Intersects(*w)) {
		return nil
	}

	// Unequal levels: descend the taller side only.
	if na.Level < nb.Level {
		w := na.MBR()
		for _, eb := range nb.Entries {
			if eb.Rect.Intersects(w) {
				if err := j.joinNodes(pa, iosim.PageID(eb.Ref)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if na.Level > nb.Level {
		w := nb.MBR()
		for _, ea := range na.Entries {
			if ea.Rect.Intersects(w) {
				if err := j.joinNodes(iosim.PageID(ea.Ref), pb); err != nil {
					return err
				}
			}
		}
		return nil
	}

	pairs := matchNodeEntries(&na, &nb, &j.scratch[na.Level], &j.pairs)
	if na.Leaf() {
		for _, p := range pairs {
			if !pairInWindow(j.o.Window, p.a.Rect, p.b.Rect) {
				continue
			}
			j.o.emitPair(&j.res.Pairs, geom.Record{Rect: p.a.Rect, ID: p.a.Ref},
				geom.Record{Rect: p.b.Rect, ID: p.b.Ref})
		}
		return nil
	}
	// The recursion below reuses the per-level scratch, so copy the
	// pair list before descending. Descent follows the sweep's output
	// order, as in the original algorithm; children of one parent are
	// contiguous on disk, so the drive's track prefetch still serves
	// most of these reads sequentially (Section 6.2).
	own := make([]entryPair, len(pairs))
	copy(own, pairs)
	for _, p := range own {
		if err := j.joinNodes(iosim.PageID(p.a.Ref), iosim.PageID(p.b.Ref)); err != nil {
			return err
		}
	}
	return nil
}

// filterSorted fills buf with the entries intersecting w, sorted by
// lower y, reusing buf's capacity across calls.
func filterSorted(entries []rtree.Entry, w geom.Rect, buf *[]rtree.Entry) []rtree.Entry {
	out := (*buf)[:0]
	for _, e := range entries {
		if e.Rect.Intersects(w) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b rtree.Entry) int {
		switch {
		case a.Rect.YLo < b.Rect.YLo:
			return -1
		case a.Rect.YLo > b.Rect.YLo:
			return 1
		case a.Ref < b.Ref:
			return -1
		case a.Ref > b.Ref:
			return 1
		default:
			return 0
		}
	})
	*buf = out
	return out
}
