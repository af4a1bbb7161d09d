package core

import (
	"context"
	"fmt"

	"unijoin/internal/geom"
	"unijoin/internal/histogram"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// Planner implements the cost model of Section 6.3: index-based access
// pays a random read per page, sort-based access pays the equivalent
// of 6 sequential passes (3 reads plus 2 writes at 1.5x), so using an
// index only wins when the join touches a small enough fraction of it.
// For the paper's Machine 1 disk the break-even fraction is about 60%
// of the leaf pages, the number quoted in the paper; faster disks with
// unchanged access times push the threshold much lower.
type Planner struct {
	Machine iosim.Machine
	// HistogramRes is the per-axis resolution of the spatial histograms
	// used for estimation (default histogram.DefaultResolution).
	HistogramRes int
	// UseMinSkew switches estimation from the plain grid to the
	// MinSkew histogram of Acharya, Poosala, and Ramaswamy [1] — the
	// estimator Section 6.3 actually cites. MinSkewBuckets bounds its
	// bucket budget (default 64).
	UseMinSkew     bool
	MinSkewBuckets int
}

// Threshold returns the break-even leaf fraction for the planner's
// machine: use an index only when the estimated fraction of pages
// touched is below it.
//
// Derivation (following §6.3): the sort-based path costs about
// 3 sequential reads + 2 sequential writes of the data, i.e.
// (3 + 2*1.5) = 6 sequential-read-equivalents per page; the index path
// costs one random read per touched page, i.e. rho = randRead/seqRead
// sequential-read-equivalents per page. Break-even: f * rho = 6.
func (p Planner) Threshold() float64 {
	ps := p.Machine.PageSize
	seq := float64(p.Machine.Disk.SeqReadTime(ps))
	rnd := float64(p.Machine.Disk.RandReadTime(ps))
	if rnd <= 0 {
		return 1
	}
	f := 6 * seq / rnd
	if f > 1 {
		f = 1
	}
	return f
}

// Decision is the outcome of planning one join.
type Decision struct {
	// UseIndexA/UseIndexB say whether each input's index should be
	// traversed (true) or the input sorted from its file (false).
	UseIndexA, UseIndexB bool
	// FracA/FracB are the estimated leaf fractions the join touches.
	FracA, FracB float64
	// Threshold is the machine's break-even fraction.
	Threshold float64
	// MBRA/MBRB are the bounding rectangles observed while building
	// the estimation histograms; their intersection bounds every
	// possible result pair and is used to window the executed join.
	MBRA, MBRB geom.Rect
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	side := func(use bool, f float64) string {
		if use {
			return fmt.Sprintf("index (%.0f%% < %.0f%%)", f*100, d.Threshold*100)
		}
		return fmt.Sprintf("sort (%.0f%% >= %.0f%%)", f*100, d.Threshold*100)
	}
	return fmt.Sprintf("A: %s, B: %s", side(d.UseIndexA, d.FracA), side(d.UseIndexB, d.FracB))
}

// Plan decides, per input, whether to use its index. Inputs without an
// index always take the sort path; inputs without a file must take the
// index path. Estimation uses grid histograms built with one
// sequential scan over each input file.
func (p Planner) Plan(ctx context.Context, opts Options, a, b Input) (Decision, error) {
	d := Decision{Threshold: p.Threshold()}
	_, err := run(ctx, opts, "plan", func(ctx context.Context, o Options, _ *Result) error {
		res := p.HistogramRes
		if res == 0 {
			res = histogram.DefaultResolution
		}

		// Build histograms from whichever representation is available
		// without touching the trees (files preferred: sequential scans).
		ga, mbrA, err := inputHistogram(ctx, o, a, res)
		if err != nil {
			return err
		}
		gb, mbrB, err := inputHistogram(ctx, o, b, res)
		if err != nil {
			return err
		}
		d.MBRA, d.MBRB = mbrA, mbrB
		if p.UseMinSkew {
			buckets := p.MinSkewBuckets
			if buckets == 0 {
				buckets = 64
			}
			msA, err := histogram.BuildMinSkew(ga, buckets)
			if err != nil {
				return err
			}
			msB, err := histogram.BuildMinSkew(gb, buckets)
			if err != nil {
				return err
			}
			d.FracA = msA.OverlapFraction(msB)
			d.FracB = msB.OverlapFraction(msA)
		} else {
			d.FracA, err = ga.OverlapFraction(gb)
			if err != nil {
				return err
			}
			d.FracB, err = gb.OverlapFraction(ga)
			if err != nil {
				return err
			}
		}
		if w := o.Window; w != nil {
			fa := ga.FractionInWindow(*w)
			fb := gb.FractionInWindow(*w)
			if fa < d.FracA {
				d.FracA = fa
			}
			if fb < d.FracB {
				d.FracB = fb
			}
		}

		d.UseIndexA = decideSide(a, d.FracA, d.Threshold)
		d.UseIndexB = decideSide(b, d.FracB, d.Threshold)
		return nil
	})
	return d, err
}

func decideSide(in Input, frac, threshold float64) bool {
	if in.Tree == nil {
		return false
	}
	if in.File == nil {
		return true // no non-indexed representation available
	}
	return frac < threshold
}

// Join plans and executes: each side uses its index only when the
// decision says so, then the unified PQ join runs on the chosen
// representations (with scanner restriction enabled, so a selective
// index side skips irrelevant subtrees).
func (p Planner) Join(ctx context.Context, opts Options, a, b Input) (Decision, Result, error) {
	d, err := p.Plan(ctx, opts, a, b)
	if err != nil {
		return d, Result{}, err
	}
	ea, eb := a, b
	if !d.UseIndexA {
		ea = Input{File: a.File}
	}
	if !d.UseIndexB {
		eb = Input{File: b.File}
	}
	opts.RestrictScanners = true
	// Every result pair lies inside the intersection of the inputs'
	// bounding rectangles, so the join can be windowed to it; this is
	// what lets an index side skip irrelevant subtrees even when the
	// other side takes the sort path.
	if w, ok := d.MBRA.Intersection(d.MBRB); ok {
		if opts.Window != nil {
			if w2, ok2 := w.Intersection(*opts.Window); ok2 {
				opts.Window = &w2
			}
		} else {
			opts.Window = &w
		}
	}
	res, err := PQ(ctx, opts, ea, eb)
	return d, res, err
}

// inputHistogram builds a grid and the observed MBR for one input,
// scanning its file when present or walking the tree's leaves
// otherwise.
func inputHistogram(ctx context.Context, o Options, in Input, res int) (*histogram.Grid, geom.Rect, error) {
	if in.File != nil {
		g := histogram.New(o.Universe, res, res)
		mbr := geom.EmptyRect()
		r := stream.NewReader(in.File, stream.Records)
		for n := 0; ; n++ {
			if n&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, mbr, err
				}
			}
			rec, ok, err := r.Next()
			if err != nil {
				return nil, mbr, err
			}
			if !ok {
				return g, mbr, nil
			}
			g.Add(rec.Rect)
			mbr = mbr.Union(rec.Rect)
		}
	}
	if in.Tree == nil {
		return nil, geom.Rect{}, fmt.Errorf("core: input has neither file nor tree")
	}
	g := histogram.New(o.Universe, res, res)
	sc := in.Tree.Scanner(storeReaderFor(o))
	for n := 0; ; n++ {
		if n&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, geom.Rect{}, err
			}
		}
		r, ok, err := sc.Next()
		if err != nil {
			return nil, geom.Rect{}, err
		}
		if !ok {
			break
		}
		g.Add(r.Rect)
	}
	for _, r := range in.Delta.Recs {
		g.Add(r.Rect)
	}
	return g, in.indexedMBR(), nil
}

// storeReaderFor returns the direct (uncached) page reader for the
// options' store.
func storeReaderFor(o Options) rtree.StoreReader { return rtree.StoreReader{Store: o.Store} }
