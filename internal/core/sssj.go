package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/stream"
)

// SSSJ runs the Scalable Sweeping-based Spatial Join of Arge et al.
// [4] on two non-indexed inputs: both streams are externally sorted by
// the lower y-coordinate of their MBRs, then a single plane sweep over
// the two sorted streams reports every intersecting pair.
//
// For all realistic data sets (including everything in the paper's
// evaluation) the sweep structures stay far below the memory budget
// and the algorithm is exactly sort + scan: two sequential read
// passes, one non-sequential read pass while merging, and two
// sequential write passes over the data, as quoted in Section 3.1.
// If the sweep structure nevertheless outgrows the budget, SSSJ
// reports ErrSweepOverflow; SSSJPartitioned is the
// distribution-sweeping fallback for such adversarial inputs.
//
// It is the unified join on two file inputs — the body PQ runs, under
// SSSJ's name — plus the overflow check. A window cannot reduce the
// sort passes (the paper's §6.3 point: the sort path has no locality
// to exploit) but it does filter the sweep, so only window records
// meet the kernel.
func SSSJ(ctx context.Context, opts Options, a, b *iosim.File) (Result, error) {
	if a == nil || b == nil {
		return Result{}, fmt.Errorf("%w: SSSJ inputs need a file", ErrNilRelation)
	}
	return run(ctx, opts, "SSSJ", func(ctx context.Context, o Options, res *Result) error {
		if err := joinInputs(ctx, o, res, FileInput(a), FileInput(b), o.pairSink(&res.Pairs)); err != nil {
			return err
		}
		if res.SweepMaxBytes > o.MemoryBytes {
			return fmt.Errorf("%w: sweep structure reached %d bytes against a %d-byte budget",
				ErrSweepOverflow, res.SweepMaxBytes, o.MemoryBytes)
		}
		return nil
	})
}

// ErrSweepOverflow reports that the in-memory sweep structures
// exceeded the configured memory budget. The paper handles this case
// (which never occurs on real-life data) by partitioning along one
// dimension; use SSSJPartitioned.
var ErrSweepOverflow = fmt.Errorf("core: sweep structure exceeded internal memory")

// SSSJPartitioned is SSSJ's defense against worst-case inputs
// (Section 3.1): the universe is cut into vertical slabs, records are
// replicated into every slab their x-interval overlaps, and each slab
// is joined independently with the standard sort-and-sweep. A pair is
// reported only in the slab containing the left edge of the pair's
// intersection, so output is exactly-once. With slabs = 1 it reduces
// to plain SSSJ.
//
// This is a simplified form of the distribution-sweeping machinery of
// [4, 5]: one level of partitioning along x, which is all that is ever
// needed unless the active-rectangle population exceeds memory by more
// than the slab factor.
func SSSJPartitioned(ctx context.Context, opts Options, a, b *iosim.File, slabs int) (Result, error) {
	if slabs < 1 {
		return Result{}, fmt.Errorf("core: slab count %d < 1", slabs)
	}
	if slabs == 1 {
		return SSSJ(ctx, opts, a, b)
	}
	return run(ctx, opts, "SSSJ-part", func(ctx context.Context, o Options, res *Result) error {
		// Slab boundaries over the universe's x-range, computed once:
		// the same intervals place records (Loads) and own pairs
		// (OwnsPair, through Options.Own), so the two cannot round
		// differently. The outer slabs are unbounded.
		width := float64(o.Universe.Width()) / float64(slabs)
		if width <= 0 {
			return fmt.Errorf("core: degenerate universe %v for partitioning", o.Universe)
		}
		ivs := make([]geom.Interval, slabs)
		cut := geom.Coord(math.Inf(-1))
		for s := range ivs {
			ivs[s].Lo = cut
			cut = o.Universe.XLo + geom.Coord(float64(s+1)*width)
			ivs[s].Hi = cut
		}
		ivs[slabs-1].Hi = geom.Coord(math.Inf(1))

		distribute := func(in *iosim.File) ([]*iosim.File, error) {
			files := make([]*iosim.File, slabs)
			writers := make([]*stream.Writer[geom.Record], slabs)
			for i := range files {
				files[i] = iosim.NewFile(o.Store)
				writers[i] = stream.NewWriter(files[i], stream.Records)
			}
			rd := stream.NewReader(in, stream.Records)
			for n := 0; ; n++ {
				if n&4095 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				rec, ok, err := rd.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				if o.Window != nil && !rec.Rect.Intersects(*o.Window) {
					continue
				}
				// Slab counts are small, so the scan from the left is
				// cheap; the slabs are ordered, so it ends at the first
				// one that starts right of the record.
				for s, iv := range ivs {
					if rec.Rect.XHi < iv.Lo {
						break
					}
					if !iv.Loads(rec.Rect) {
						continue
					}
					if err := writers[s].Write(rec); err != nil {
						return nil, err
					}
				}
			}
			for _, w := range writers {
				if err := w.Flush(); err != nil {
					return nil, err
				}
			}
			return files, nil
		}

		distStart := time.Now()
		slabsA, err := distribute(a)
		if err != nil {
			return err
		}
		slabsB, err := distribute(b)
		if err != nil {
			return err
		}
		res.PartitionWall = time.Since(distStart)

		// Each slab is the unified join over its two files, owning the
		// pairs whose reference point falls in the slab — and in the
		// caller's interval, when there is one. Distribution already
		// applied the window; the reference point stays clipped to it
		// (Options.winXLo), a point of both records still, so the slab
		// that owns a pair holds it.
		so := o
		so.Window = nil
		for s, iv := range ivs {
			if o.Own != nil {
				iv = geom.Interval{Lo: max(iv.Lo, o.Own.Lo), Hi: min(iv.Hi, o.Own.Hi)}
			}
			so.Own = &iv
			var part Result
			err := joinInputs(ctx, so, &part, FileInput(slabsA[s]), FileInput(slabsB[s]), so.pairSink(&part.Pairs))
			slabsA[s].Release() // scratch
			slabsB[s].Release()
			if err != nil {
				return err
			}
			res.add(part)
		}
		return nil
	})
}
