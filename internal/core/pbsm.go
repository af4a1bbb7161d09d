package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/stream"
)

// PBSMStats reports what the partitioning phase did.
type PBSMStats struct {
	Partitions        int     // number of spatial partitions
	TilesPerAxis      int     // tile grid resolution
	MaxPartitionBytes int64   // largest partition (both inputs)
	Replication       float64 // records written / records read (>= 1)
	OverflowedParts   int     // partitions that exceeded the memory budget
	SwapPages         int64   // pages charged for overflowed partitions
}

// PBSM runs the Partition-based Spatial Merge join of Patel and DeWitt
// [30] on two non-indexed inputs.
//
// Partitioning: the universe is cut into TilesPerAxis^2 tiles, and the
// tiles are assigned to p partitions round-robin in row-major order
// (the paper's scheme for defusing clustered data). Each record is
// written to every partition owning a tile it overlaps (once per
// partition). Joining: each partition's records from both inputs are
// read into memory, sorted by lower y, and swept with the
// Forward-Sweep structure, as in the original.
//
// Duplicate elimination: a candidate pair may meet in several
// partitions; it is reported only in the partition owning the tile
// that contains the bottom-left corner of the pair's intersection,
// making output exactly-once without the post-hoc sort of the
// original implementation (see DESIGN.md).
//
// Partitions that exceed the memory budget are charged swap traffic
// (one write and one read per overflowing page), modelling the page
// faults the paper observed with 32x32 tiles before moving to 128x128.
func PBSM(ctx context.Context, opts Options, a, b *iosim.File) (Result, error) {
	return run(ctx, opts, "PBSM", func(ctx context.Context, o Options, res *Result) error {
		t := o.PBSMTilesPerAxis
		if t < 1 {
			return fmt.Errorf("core: PBSM tiles per axis %d < 1", t)
		}
		// Partition count: both inputs' share of a partition must fit
		// in memory, with headroom for sort bookkeeping.
		budget := int64(o.MemoryBytes) * 3 / 4
		p := clampInt(int((a.Size()+b.Size()+budget-1)/budget), 1, t*t)
		stats := &PBSMStats{Partitions: p, TilesPerAxis: t}
		res.PBSM = stats

		uw := float64(o.Universe.Width())
		uh := float64(o.Universe.Height())
		if uw <= 0 || uh <= 0 {
			return fmt.Errorf("core: degenerate universe %v", o.Universe)
		}
		tileX := func(x geom.Coord) int { return clampInt(int(float64(x-o.Universe.XLo)/uw*float64(t)), 0, t-1) }
		tileY := func(y geom.Coord) int { return clampInt(int(float64(y-o.Universe.YLo)/uh*float64(t)), 0, t-1) }
		partOf := func(tx, ty int) int { return (ty*t + tx) % p }

		var read, written int64
		distribute := func(in *iosim.File) ([]*iosim.File, error) {
			files := make([]*iosim.File, p)
			writers := make([]*stream.Writer[geom.Record], p)
			for i := range files {
				files[i] = iosim.NewFile(o.Store)
				writers[i] = stream.NewWriter(files[i], stream.Records)
			}
			seen := make([]int, p) // record-stamped dedup of partition targets
			stamp := 0
			rd := stream.NewReader(in, stream.Records)
			for {
				if stamp&4095 == 0 {
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
				// Window filtering happens at partitioning time: a
				// qualifying pair needs both records to intersect the
				// window, so dropping non-window records per side is
				// exact and saves the partition I/O.
				if o.Window != nil && !rec.Rect.Intersects(*o.Window) {
					continue
				}
				read++
				stamp++
				x0, x1 := tileX(rec.Rect.XLo), tileX(rec.Rect.XHi)
				y0, y1 := tileY(rec.Rect.YLo), tileY(rec.Rect.YHi)
				for ty := y0; ty <= y1; ty++ {
					for tx := x0; tx <= x1; tx++ {
						pi := partOf(tx, ty)
						if seen[pi] == stamp {
							continue
						}
						seen[pi] = stamp
						if err := writers[pi].Write(rec); err != nil {
							return nil, err
						}
						written++
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
		partsA, err := distribute(a)
		if err != nil {
			return err
		}
		partsB, err := distribute(b)
		if err != nil {
			return err
		}
		res.PartitionWall = time.Since(distStart)
		if read > 0 {
			stats.Replication = float64(written) / float64(read)
		}

		// Join each partition in memory.
		for pi := 0; pi < p; pi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			recsA, err := stream.ReadAll(partsA[pi], stream.Records)
			if err != nil {
				return err
			}
			recsB, err := stream.ReadAll(partsB[pi], stream.Records)
			if err != nil {
				return err
			}
			partBytes := partsA[pi].Size() + partsB[pi].Size()
			if partBytes > stats.MaxPartitionBytes {
				stats.MaxPartitionBytes = partBytes
			}
			if partBytes > int64(o.MemoryBytes) {
				stats.OverflowedParts++
				if err := chargeSwap(o.Store, partBytes-int64(o.MemoryBytes), &stats.SwapPages); err != nil {
					return err
				}
			}
			sort.Slice(recsA, func(i, j int) bool { return geom.ByLowerY(recsA[i], recsA[j]) < 0 })
			sort.Slice(recsB, func(i, j int) bool { return geom.ByLowerY(recsB[i], recsB[j]) < 0 })
			err = forwardSweepRecords(ctx, recsA, recsB, func(ra, rb geom.Record) {
				in, ok := ra.Rect.Intersection(rb.Rect)
				if !ok {
					return
				}
				if partOf(tileX(in.XLo), tileY(in.YLo)) == pi {
					o.emitPair(&res.Pairs, ra, rb)
				}
			})
			if err != nil {
				return err
			}
			partsA[pi].Release()
			partsB[pi].Release()
		}
		return nil
	})
}

// chargeSwap models paging an oversized partition: the overflow is
// written out and read back once through a scratch file, so the cost
// lands in the store counters like any other I/O.
func chargeSwap(store *iosim.Store, overflowBytes int64, swapPages *int64) error {
	scratch := iosim.NewFile(store)
	page := make([]byte, store.PageSize())
	pages := (overflowBytes + int64(store.PageSize()) - 1) / int64(store.PageSize())
	for i := int64(0); i < pages; i++ {
		if err := scratch.Append(page); err != nil {
			return err
		}
	}
	for i := int64(0); i < pages; i++ {
		if _, err := scratch.ReadAt(page, i*int64(store.PageSize())); err != nil {
			return err
		}
	}
	scratch.Release()
	*swapPages += 2 * pages
	return nil
}

// forwardSweepRecords is the classic in-memory Forward-Sweep over two
// y-sorted slices (Brinkhoff et al. [8]): repeatedly take the record
// with the lower bottom edge and scan forward in the other list while
// bottom edges stay under its top edge, testing x-overlap. The outer
// loop polls ctx so a canceled join stops mid-partition.
func forwardSweepRecords(ctx context.Context, as, bs []geom.Record, emit func(a, b geom.Record)) error {
	i, j := 0, 0
	for n := 0; i < len(as) && j < len(bs); n++ {
		if n&1023 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if as[i].Rect.YLo <= bs[j].Rect.YLo {
			top := as[i].Rect.YHi
			for k := j; k < len(bs) && bs[k].Rect.YLo <= top; k++ {
				if as[i].Rect.IntersectsX(bs[k].Rect) {
					emit(as[i], bs[k])
				}
			}
			i++
		} else {
			top := bs[j].Rect.YHi
			for k := i; k < len(as) && as[k].Rect.YLo <= top; k++ {
				if bs[j].Rect.IntersectsX(as[k].Rect) {
					emit(as[k], bs[j])
				}
			}
			j++
		}
	}
	return nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
