package core

import (
	"context"
	"slices"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
)

// BFRJ runs the breadth-first R-tree join of Huang, Jing, and
// Rundensteiner [16], which the paper cites as taking "approximately
// the same amount of CPU time as ST, while performing an almost
// optimal number of I/O operations (if a sufficiently large buffer
// pool is available)".
//
// Where ST recurses depth-first through node pairs, BFRJ processes the
// trees level by level: it keeps the current level's intermediate join
// index (the list of intersecting node pairs), orders the page
// accesses of the next level globally before performing them, and only
// then descends. The global ordering is the paper's ([16]) key
// optimization: sorting the pair list by page number makes each needed
// page's requests adjacent, so the buffer pool sees each page roughly
// once per level instead of ST's scattered revisits.
//
// The price is memory for the intermediate join index; its high-water
// mark is reported in Result.ScannerMaxBytes (it plays the same
// "algorithm working memory" role as PQ's priority queue).
func BFRJ(ctx context.Context, opts Options, ta, tb *rtree.Tree) (Result, error) {
	if ta == nil || tb == nil {
		return Result{}, needsIndexErr("BFRJ")
	}
	return run(ctx, opts, "BFRJ", func(ctx context.Context, o Options, res *Result) error {
		pool := iosim.NewBufferPoolBytes(o.Store, o.BufferPoolBytes)
		type pagePair struct{ a, b iosim.PageID }

		// Like ST, the level-by-level traversal is the whole algorithm;
		// the trace's partition time stays zero.
		sweepStart := time.Now()
		cur := []pagePair{}
		if ta.NumRecords() > 0 && tb.NumRecords() > 0 && ta.MBR().Intersects(tb.MBR()) {
			cur = append(cur, pagePair{ta.Root(), tb.Root()})
		}
		maxIJI := 0
		var na, nb rtree.Node
		scratch := make([][2][]rtree.Entry, ta.Height()+tb.Height()+1)
		var pairsBuf []entryPair

		for len(cur) > 0 {
			if bytes := len(cur) * 8; bytes > maxIJI {
				maxIJI = bytes
			}
			// Global ordering: ascending page pairs group repeated page
			// requests and keep reads moving forward on disk.
			slices.SortFunc(cur, func(x, y pagePair) int {
				switch {
				case x.a < y.a:
					return -1
				case x.a > y.a:
					return 1
				case x.b < y.b:
					return -1
				case x.b > y.b:
					return 1
				default:
					return 0
				}
			})
			var next []pagePair
			for _, pp := range cur {
				// Per-node-pair cancellation check, as in ST.
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := ta.ReadNode(pool, pp.a, &na); err != nil {
					return err
				}
				if err := tb.ReadNode(pool, pp.b, &nb); err != nil {
					return err
				}
				// Window pruning, as in ST.
				if w := o.Window; w != nil && (!na.MBR().Intersects(*w) || !nb.MBR().Intersects(*w)) {
					continue
				}
				// Height mismatch: expand only the taller side; the new
				// pairs rejoin the frontier and converge.
				if na.Level != nb.Level {
					if na.Level < nb.Level {
						w := na.MBR()
						for _, eb := range nb.Entries {
							if eb.Rect.Intersects(w) {
								next = append(next, pagePair{pp.a, iosim.PageID(eb.Ref)})
							}
						}
					} else {
						w := nb.MBR()
						for _, ea := range na.Entries {
							if ea.Rect.Intersects(w) {
								next = append(next, pagePair{iosim.PageID(ea.Ref), pp.b})
							}
						}
					}
					continue
				}
				matches := matchNodeEntries(&na, &nb, &scratch[na.Level], &pairsBuf)
				if na.Leaf() {
					for _, p := range matches {
						if !pairInWindow(o.Window, p.a.Rect, p.b.Rect) {
							continue
						}
						o.emitPair(&res.Pairs, geom.Record{Rect: p.a.Rect, ID: p.a.Ref},
							geom.Record{Rect: p.b.Rect, ID: p.b.Ref})
					}
					continue
				}
				for _, p := range matches {
					next = append(next, pagePair{iosim.PageID(p.a.Ref), iosim.PageID(p.b.Ref)})
				}
			}
			cur = next
		}
		res.SweepWall = time.Since(sweepStart)
		res.PageRequests = pool.Misses()
		res.LogicalRequests = pool.Requests()
		res.ScannerMaxBytes = maxIJI
		return nil
	})
}

// pairInWindow applies the window semantics shared by every join
// path: both records of a qualifying pair must intersect the window.
func pairInWindow(w *geom.Rect, a, b geom.Rect) bool {
	return w == nil || (a.Intersects(*w) && b.Intersects(*w))
}

// matchNodeEntries is the shared node-pair matching used by ST and
// BFRJ: restrict both entry lists to the intersection window, sort by
// lower y, and forward-sweep. Buffers are supplied by the caller.
func matchNodeEntries(na, nb *rtree.Node, scratch *[2][]rtree.Entry, pairsBuf *[]entryPair) []entryPair {
	w, ok := na.MBR().Intersection(nb.MBR())
	if !ok {
		return nil
	}
	as := filterSorted(na.Entries, w, &scratch[0])
	bs := filterSorted(nb.Entries, w, &scratch[1])

	out := (*pairsBuf)[:0]
	i, jj := 0, 0
	for i < len(as) && jj < len(bs) {
		if as[i].Rect.YLo <= bs[jj].Rect.YLo {
			top := as[i].Rect.YHi
			for k := jj; k < len(bs) && bs[k].Rect.YLo <= top; k++ {
				if as[i].Rect.IntersectsX(bs[k].Rect) {
					out = append(out, entryPair{a: as[i], b: bs[k]})
				}
			}
			i++
		} else {
			top := bs[jj].Rect.YHi
			for k := i; k < len(as) && as[k].Rect.YLo <= top; k++ {
				if bs[jj].Rect.IntersectsX(as[k].Rect) {
					out = append(out, entryPair{a: as[k], b: bs[jj]})
				}
			}
			jj++
		}
	}
	*pairsBuf = out
	return out
}
