package core

import (
	"context"
	"fmt"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/stream"
	"unijoin/internal/sweep"
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
func SSSJ(ctx context.Context, opts Options, a, b *iosim.File) (Result, error) {
	ctx = orBG(ctx)
	o, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	return run(ctx, o, "SSSJ", func(o Options, res *Result) error {
		sortStart := time.Now()
		sortedA, statsA, err := stream.Sort(o.Store, a, stream.Records, geom.ByLowerY, o.MemoryBytes)
		if err != nil {
			return err
		}
		defer sortedA.Release()
		if err := ctx.Err(); err != nil {
			return err
		}
		sortedB, statsB, err := stream.Sort(o.Store, b, stream.Records, geom.ByLowerY, o.MemoryBytes)
		if err != nil {
			return err
		}
		defer sortedB.Release()
		res.SortStats = []stream.SortStats{statsA, statsB}
		res.PartitionWall = time.Since(sortStart)

		// A window cannot reduce the sort passes (the paper's §6.3
		// point: the sort path has no locality to exploit) but it does
		// filter the sweep, so only window records meet the kernel.
		srcA := windowed(ctx, stream.NewReader(sortedA, stream.Records), o.Window)
		srcB := windowed(ctx, stream.NewReader(sortedB, stream.Records), o.Window)
		sweepStart := time.Now()
		st, err := sweep.Join(ctx, srcA, srcB,
			o.newStructure(), o.newStructure(),
			o.pairSink(&res.Pairs),
		)
		if err != nil {
			return err
		}
		res.SweepWall = time.Since(sweepStart)
		if o.Own == nil {
			res.Pairs = st.Pairs
		}
		res.Sweep = st
		res.SweepMaxBytes = st.MaxBytes
		if st.MaxBytes > o.MemoryBytes {
			return fmt.Errorf("%w: sweep structure reached %d bytes against a %d-byte budget",
				ErrSweepOverflow, st.MaxBytes, o.MemoryBytes)
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
	ctx = orBG(ctx)
	o, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if slabs < 1 {
		return Result{}, fmt.Errorf("core: slab count %d < 1", slabs)
	}
	if slabs == 1 {
		return SSSJ(ctx, opts, a, b)
	}
	return run(ctx, o, "SSSJ-part", func(o Options, res *Result) error {
		// Slab boundaries over the universe's x-range.
		width := float64(o.Universe.Width()) / float64(slabs)
		if width <= 0 {
			return fmt.Errorf("core: degenerate universe %v for partitioning", o.Universe)
		}
		slabOf := func(x geom.Coord) int {
			i := int(float64(x-o.Universe.XLo) / width)
			if i < 0 {
				i = 0
			}
			if i >= slabs {
				i = slabs - 1
			}
			return i
		}

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
				for s := slabOf(rec.Rect.XLo); s <= slabOf(rec.Rect.XHi); s++ {
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

		for s := 0; s < slabs; s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sortStart := time.Now()
			sortedA, statsA, err := stream.Sort(o.Store, slabsA[s], stream.Records, geom.ByLowerY, o.MemoryBytes)
			if err != nil {
				return err
			}
			slabsA[s].Release()
			sortedB, statsB, err := stream.Sort(o.Store, slabsB[s], stream.Records, geom.ByLowerY, o.MemoryBytes)
			if err != nil {
				return err
			}
			slabsB[s].Release()
			res.SortStats = append(res.SortStats, statsA, statsB)
			res.PartitionWall += time.Since(sortStart)

			cur := s
			sweepStart := time.Now()
			st, err := sweep.Join(ctx,
				stream.NewReader(sortedA, stream.Records),
				stream.NewReader(sortedB, stream.Records),
				o.newStructure(), o.newStructure(),
				func(ra, rb geom.Record) {
					// Owner slab: where the intersection starts.
					if slabOf(max(ra.Rect.XLo, rb.Rect.XLo)) == cur {
						o.emitPair(&res.Pairs, ra, rb)
					}
				},
			)
			if err != nil {
				return err
			}
			res.SweepWall += time.Since(sweepStart)
			sortedA.Release()
			sortedB.Release()
			res.Sweep.Pairs += st.Pairs
			res.Sweep.Comparisons += st.Comparisons
			if st.MaxLen > res.Sweep.MaxLen {
				res.Sweep.MaxLen = st.MaxLen
			}
			if st.MaxBytes > res.Sweep.MaxBytes {
				res.Sweep.MaxBytes = st.MaxBytes
			}
		}
		res.SweepMaxBytes = res.Sweep.MaxBytes
		return nil
	})
}
