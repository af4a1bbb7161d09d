package core

import (
	"context"
	"fmt"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
	"unijoin/internal/sweep"
)

// PQ runs the paper's Priority-Queue-Driven Traversal join (Section
// 4): both inputs are turned into y-sorted record sources — an indexed
// input through rtree.SortedScanner (the priority-queue index
// adapter), a non-indexed input through an external sort exactly as in
// SSSJ — and a single plane sweep joins the two sources. This is the
// unification the paper contributes: one algorithm for
// indexed/indexed, indexed/non-indexed, and non-indexed/non-indexed
// inputs (the last being SSSJ itself).
//
// With Options.Window set, tree-backed sources skip subtrees outside
// the window, and sorted file sources drop records outside it. With
// Options.RestrictScanners, each tree scanner is additionally bounded
// by the other input's MBR; this is a no-op when the inputs cover the
// same region, which is why Table 4's PQ numbers equal the tree sizes.
func PQ(ctx context.Context, opts Options, a, b Input) (Result, error) {
	if a.empty() || b.empty() {
		return Result{}, fmt.Errorf("%w: PQ inputs need a file, a tree or a run", ErrNilRelation)
	}
	return run(ctx, opts, "PQ", func(ctx context.Context, o Options, res *Result) error {
		return joinInputs(ctx, o, res, a, b, o.pairSink(&res.Pairs))
	})
}

// prepared builds in's y-sorted side, restricted against other, and
// charges the time to res.PartitionWall: the preparation phase of a
// unified join is the external sorts of its non-indexed inputs, and
// an indexed input costs nothing here because its sorted scanner
// extracts lazily, inside the sweep.
func prepared(ctx context.Context, o Options, res *Result, in, other Input) (pqSide, error) {
	if err := ctx.Err(); err != nil {
		return pqSide{}, err
	}
	start := time.Now()
	side, err := pqSource(ctx, o, in, other)
	res.PartitionWall += time.Since(start)
	return side, err
}

// joinInputs prepares both inputs against each other and sweeps them.
func joinInputs(ctx context.Context, o Options, res *Result, a, b Input, sink func(ra, rb geom.Record)) error {
	sa, err := prepared(ctx, o, res, a, b)
	if err != nil {
		return err
	}
	sb, err := prepared(ctx, o, res, b, a)
	if err != nil {
		sa.release()
		return err
	}
	return sweepSides(ctx, o, res, sa, sb, sink)
}

// sweepSides is the unified join written once: plane-sweep two built
// y-sorted sides, release them, and report into res — the kernel's
// statistics, the scanners' footprint and page requests, the external
// sorts, and the sweep wall. PQ, SSSJ, each slab of SSSJPartitioned
// and every multiway stage are this body over different sides.
//
// sink receives every pair the kernel finds, with its rectangles; nil
// (Options.pairSink's answer for a counting-only join) lets the kernel
// tally with no per-pair call. Under Options.Own the kernel's tally
// includes pairs owned elsewhere, and the sink — pairSink's — counts
// the owned ones into res.Pairs itself.
func sweepSides(ctx context.Context, o Options, res *Result, a, b pqSide, sink func(ra, rb geom.Record)) error {
	defer a.release()
	defer b.release()
	sweepStart := time.Now()
	st, err := sweep.Join(ctx, a.src, b.src, o.newStructure(), o.newStructure(), sink)
	if err != nil {
		return err
	}
	res.SweepWall = time.Since(sweepStart)
	if o.Own == nil {
		res.Pairs = st.Pairs
	}
	res.Sweep = st
	res.SweepMaxBytes = st.MaxBytes
	for _, s := range [2]pqSide{a, b} {
		if s.scanner != nil {
			res.ScannerMaxBytes += s.scanner.MaxBytes()
			res.PageRequests += s.scanner.PagesRead()
		}
		if s.sort != nil {
			res.SortStats = append(res.SortStats, *s.sort)
		}
	}
	res.LogicalRequests = res.PageRequests
	return nil
}

// pqSide is one prepared input of a PQ join: the y-sorted source plus
// the statistics carriers, and the temporary sorted file (for
// non-indexed inputs) to release when the join is done.
type pqSide struct {
	src     sweep.Source
	scanner *rtree.SortedScanner
	sort    *stream.SortStats
	temp    *iosim.File
}

// release returns the side's scratch space to the store.
func (s pqSide) release() {
	if s.temp != nil {
		s.temp.Release()
	}
}

// pqSource builds the y-sorted source for one input. For indexed
// inputs the scanner carries page and memory statistics, and a delta
// run is merged into its output — the scanner alone when the run is
// empty; an input that is only a run is read as it stands; for
// non-indexed inputs the external sort's statistics and temp file are
// carried instead.
func pqSource(ctx context.Context, o Options, in, other Input) (pqSide, error) {
	window, useWindow := pqWindow(o, other)
	if in.Tree != nil {
		var sc *rtree.SortedScanner
		if useWindow {
			sc = in.Tree.WindowScanner(rtree.StoreReader{Store: o.Store}, window)
		} else {
			sc = in.Tree.Scanner(rtree.StoreReader{Store: o.Store})
		}
		side := pqSide{src: sc, scanner: sc}
		if len(in.Delta.Recs) > 0 {
			side.src = &mergedSource{a: sc, b: deltaSource(ctx, in.Delta, window, useWindow)}
		}
		return side, nil
	}
	if in.File == nil {
		return pqSide{src: deltaSource(ctx, in.Delta, window, useWindow)}, nil
	}
	sorted, stats, err := stream.Sort(o.Store, in.File, stream.Records, geom.ByLowerY, o.MemoryBytes)
	if err != nil {
		return pqSide{}, err
	}
	rd := stream.NewReader(sorted, stream.Records)
	side := pqSide{src: rd, sort: &stats, temp: sorted}
	if useWindow {
		side.src = &windowFilterSource{ctx: ctx, src: rd, window: window}
	}
	return side, nil
}

// pqWindow computes the restriction rectangle for one source given the
// join options and the opposite input.
func pqWindow(o Options, other Input) (geom.Rect, bool) {
	have := false
	w := geom.Rect{}
	if o.Window != nil {
		w, have = *o.Window, true
	}
	if o.RestrictScanners && other.Tree != nil {
		m := other.indexedMBR()
		if m.Valid() {
			if have {
				in, ok := w.Intersection(m)
				if !ok {
					// Disjoint restriction: a window nothing intersects.
					return geom.EmptyRect(), true
				}
				w = in
			} else {
				w, have = m, true
			}
		}
	}
	return w, have
}

// windowFilterSource drops records outside a window from a sorted
// source, preserving order. Long runs of filtered-out records are the
// one place a single Next call can do unbounded work, so the skip
// loop polls the context.
type windowFilterSource struct {
	ctx     context.Context
	src     sweep.Source
	window  geom.Rect
	skipped int
}

// Next implements sweep.Source.
func (w *windowFilterSource) Next() (geom.Record, bool, error) {
	for {
		r, ok, err := w.src.Next()
		if err != nil || !ok {
			return r, ok, err
		}
		if r.Rect.Intersects(w.window) {
			return r, true, nil
		}
		w.skipped++
		if w.skipped&4095 == 0 && w.ctx != nil {
			if err := w.ctx.Err(); err != nil {
				return geom.Record{}, false, err
			}
		}
	}
}
