// Package core implements the spatial join algorithms the paper
// builds and compares (Sections 3 and 4), all over the simulated disk.
// It is what every NewWorkspace() caller runs — sjbench, sjjoin,
// internal/experiments, the paper's tables — and what a serving
// workspace still runs for ST, BFRJ, PBSM, auto and multiway joins; a
// served PQ or SSSJ reads the relations' resident runs instead and does
// not come through here (see unijoin's Workspace.dispatch).
//
//   - SSSJ   — Scalable Sweeping-based Spatial Join [4]: external sort
//     by lower y, then one plane sweep (plus the slab-partitioned
//     fallback for adversarial inputs).
//   - PBSM   — Partition-based Spatial Merge join [30]: tile-hash
//     partitioning followed by an in-memory sweep per partition.
//   - ST     — Synchronized R-tree traversal [8] with an LRU buffer
//     pool and the search-space restriction of the original paper.
//   - PQ     — the paper's contribution: Priority-Queue-driven
//     traversal, which extracts indexed inputs in sorted order and
//     feeds the same sweep as SSSJ, unifying both approaches; it
//     accepts any mix of indexed and non-indexed inputs and extends
//     to multi-way joins (MultiwayPQ).
//
// A Planner implements the paper's Section 6.3 cost model: choose the
// index path only when the estimated fraction of leaf pages touched is
// below the machine-specific random-vs-sequential break-even point.
//
// All joins compute the filter step: every pair of intersecting MBRs,
// each exactly once, with the left component from the first input.
// Following the paper's accounting, the cost of reporting (writing)
// the output is excluded: results go to an optional Emit callback, or
// to the batched EmitBatch callback that amortizes the per-pair
// indirection over pooled pairbuf.BatchSize slices.
//
// Every algorithm takes a context.Context and polls it periodically —
// between phases and inside the sweep, distribution, and traversal
// loops — so a canceled or timed-out query returns ErrCanceled
// promptly instead of running to completion.
package core

import (
	"context"
	"fmt"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/pairbuf"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
	"unijoin/internal/sweep"
)

// Input is one join relation: a record stream, an R-tree, or both.
// The unified PQ join uses whichever representation the plan calls
// for; SSSJ/PBSM require File, ST requires Tree.
//
// A relation under live ingestion is indexed and sorted at once: Tree
// covers the records of its last bulk load and Delta holds the ones
// appended since as a resident y-sorted run. Delta counts only beside
// Tree (File, when present, holds every record) or alone, as the input
// form of the run itself; PQ merges it into the tree's sorted scanner.
// An empty Delta — every static relation — leaves the tree's scanner
// as it is.
type Input struct {
	File  *iosim.File
	Tree  *rtree.Tree
	Delta geom.Run
}

// FileInput wraps a non-indexed record stream.
func FileInput(f *iosim.File) Input { return Input{File: f} }

// TreeInput wraps an indexed relation.
func TreeInput(t *rtree.Tree) Input { return Input{Tree: t} }

// Indexed reports whether the input has a spatial index.
func (in Input) Indexed() bool { return in.Tree != nil }

// empty reports whether the input has no representation at all.
func (in Input) empty() bool {
	return in.File == nil && in.Tree == nil && len(in.Delta.Recs) == 0
}

// indexedMBR bounds what the input's index form holds: the tree's
// records and the delta run's.
func (in Input) indexedMBR() geom.Rect {
	m := in.Tree.MBR()
	for _, r := range in.Delta.Recs {
		m = m.Union(r.Rect)
	}
	return m
}

// Options configures a join run. The zero value of every field has a
// sensible default; Store and Universe are required.
type Options struct {
	// Store is the simulated disk all inputs live on.
	Store *iosim.Store
	// Universe bounds the data of both inputs; it sizes the striped
	// sweep structure and PBSM's tile grid.
	Universe geom.Rect

	// MemoryBytes is the simulated internal-memory budget (sorting
	// runs, PBSM partitions). Default 24 MB, the paper's machines.
	MemoryBytes int
	// BufferPoolBytes is the LRU pool available to ST. Default 22 MB.
	BufferPoolBytes int

	// UseForwardSweep switches the main sweep kernel from
	// Striped-Sweep to Forward-Sweep (for the ablation of [4]).
	UseForwardSweep bool

	// PBSMTilesPerAxis is the tile grid resolution (default 128, the
	// value the paper settled on; 32 reproduces Patel and DeWitt's
	// original and overflows on clustered data).
	PBSMTilesPerAxis int

	// Window restricts the join to records intersecting this
	// rectangle (both sides must intersect it for a pair to qualify);
	// used for the selective joins of §6.3. Every algorithm honors
	// it: PQ windows its scanners and sorted sources, SSSJ filters
	// the sweep after the (unavoidable) full sort, PBSM filters at
	// partitioning time, and ST/BFRJ prune subtrees and filter leaf
	// matches.
	Window *geom.Rect
	// RestrictScanners makes PQ tree scanners skip subtrees that
	// cannot intersect the other input's bounding rectangle — the
	// "slightly more complicated version" of Section 4. It has no
	// effect when the inputs overlap fully (as in all of Figure 2/3)
	// but is what makes selective joins cheap.
	RestrictScanners bool

	// Own, when set, keeps only the pairs whose reference point
	// (geom.Interval.OwnsPair — under Window, clipped to its left edge)
	// falls in the interval — a stripe shard's share of the join; the
	// shares of intervals that tile the line are disjoint and sum to
	// the whole, and an interval that misses Window's x-extent has an
	// empty share. The test runs where each algorithm holds both
	// rectangles (emitPair, pairSink), so Result.Pairs and the
	// callbacks see owned pairs only. MultiwayPQ refuses it
	// (errors.ErrUnsupported): a tuple has no pair reference point.
	Own *geom.Interval
	// winXLo is Window's left edge as the ownership rule takes it
	// (geom.NoWindow without one), fixed by withDefaults: the slab
	// fallback clears Window on its per-slab options once distribution
	// has applied it, and the slabs must still own by the clipped point.
	winXLo geom.Coord

	// Emit receives every result pair. nil counts pairs without
	// reporting them, matching the paper's cost accounting, which
	// excludes output writing.
	Emit func(geom.Pair)
	// EmitBatch receives result pairs in pooled batches of up to
	// pairbuf.BatchSize — the fast path for callers that can consume
	// slices, amortizing the per-pair callback over thousands of
	// pairs. The slice is only valid for the duration of the call and
	// is reused afterwards; callers must copy pairs they retain. At
	// most one of Emit and EmitBatch may be set.
	EmitBatch func([]geom.Pair)
}

func (o Options) withDefaults() (Options, error) {
	if o.Store == nil {
		return o, fmt.Errorf("core: Options.Store is required")
	}
	if !o.Universe.Valid() {
		return o, fmt.Errorf("core: Options.Universe %v is invalid", o.Universe)
	}
	if o.Emit != nil && o.EmitBatch != nil {
		return o, fmt.Errorf("core: Options.Emit and Options.EmitBatch are mutually exclusive")
	}
	if o.MemoryBytes == 0 {
		o.MemoryBytes = 24 << 20
	}
	if o.MemoryBytes < 4*o.Store.PageSize() {
		o.MemoryBytes = 4 * o.Store.PageSize()
	}
	if o.BufferPoolBytes == 0 {
		o.BufferPoolBytes = 22 << 20
	}
	if o.PBSMTilesPerAxis == 0 {
		o.PBSMTilesPerAxis = 128
	}
	o.winXLo = geom.NoWindow
	if o.Window != nil {
		o.winXLo = o.Window.XLo
	}
	return o, nil
}

// newStructure builds the configured sweep structure.
func (o *Options) newStructure() sweep.Structure {
	if o.UseForwardSweep {
		return sweep.NewForward()
	}
	return sweep.NewStripedFor(o.Universe, sweep.DefaultStrips)
}

// owns reports whether this join reports the pair at all: always, or
// by the reference-point rule under an Own interval.
func (o *Options) owns(ra, rb geom.Record) bool {
	return o.Own == nil || o.Own.OwnsPair(ra.Rect.XLo, rb.Rect.XLo, o.winXLo)
}

// emitPair reports one pair found by an algorithm that counts result
// pairs itself: it drops a pair Own gives to another interval, counts
// the rest and forwards them to the optional callback.
func (o *Options) emitPair(pairs *int64, ra, rb geom.Record) {
	if !o.owns(ra, rb) {
		return
	}
	*pairs++
	if o.Emit != nil {
		o.Emit(geom.Pair{Left: ra.ID, Right: rb.ID})
	}
}

// pairSink returns the sweep.Join callback of a join that reports the
// kernel's whole output: Emit, or nil for counting-only joins — the
// fast path where the sweep kernel tallies pairs with no per-pair
// indirection at all and the caller reads the count from sweep.Stats.
// Under Own that tally includes pairs owned elsewhere, so the sink is
// emitPair counting into owned, the count the caller reports instead.
func (o *Options) pairSink(owned *int64) func(ra, rb geom.Record) {
	switch {
	case o.Own != nil:
		return func(ra, rb geom.Record) { o.emitPair(owned, ra, rb) }
	case o.Emit != nil:
		emit := o.Emit
		return func(ra, rb geom.Record) { emit(geom.Pair{Left: ra.ID, Right: rb.ID}) }
	}
	return nil
}

// Result reports what a join did. Time is split the way the paper
// splits it: measured computation (HostCPU, to be scaled by a
// Machine) and simulated disk activity (IO counters, to be priced by
// a DiskModel).
type Result struct {
	Algorithm string
	Pairs     int64

	// Sweep reports the plane-sweep kernel statistics (for SSSJ/PQ;
	// zero value for PBSM/ST which sweep per partition or node pair).
	Sweep sweep.Stats

	// ScannerMaxBytes is the peak footprint of PQ's priority queues
	// and leaf buffers (the "Priority Queue" rows of Table 3).
	ScannerMaxBytes int
	// SweepMaxBytes is the peak sweep-structure footprint (the "Sweep
	// Structure" rows of Table 3).
	SweepMaxBytes int

	// PageRequests counts index page reads issued to the disk during
	// the join (Table 4): scanner reads for PQ, pool misses for ST.
	PageRequests int64
	// LogicalRequests counts page requests before buffer-pool hits are
	// removed (ST only; equals PageRequests for PQ).
	LogicalRequests int64

	// IO is the store counter delta over the whole join, including any
	// sorting and partitioning passes, classified under the
	// segmented-drive-cache model (Machines 1 and 3).
	IO iosim.Counters
	// IODirect is the same delta classified for a drive whose cache
	// cannot track several sequential streams (Machine 2's 128 KB
	// Medalist); interleaved streams all pay seeks.
	IODirect iosim.Counters

	// HostCPU is the measured wall-clock of the (single-threaded) join
	// on the host, excluding simulated I/O pricing. Scale it with
	// Machine.CPUTime.
	HostCPU time.Duration

	// PartitionWall and SweepWall split HostCPU the way the parallel
	// engine's Report splits its phases: time spent preparing inputs
	// (external sorts, PBSM distribution, scanner setup) versus time
	// in the sweep or traversal that emits pairs. ST and BFRJ have no
	// preparation phase, so their PartitionWall is zero. The serving
	// layer feeds these into its per-phase histograms and per-query
	// traces.
	PartitionWall time.Duration
	SweepWall     time.Duration
	// PrepareWall is what the in-memory engine's query spent ahead of
	// those two phases merging its inputs' prepared runs
	// (ingest.Version.Prepared): zero unless this query was the one
	// that found an appended epoch's run unmerged.
	PrepareWall time.Duration

	// SortStats describe the external sorts run on non-indexed inputs
	// (SSSJ and PQ), in input order.
	SortStats []stream.SortStats

	// PBSM holds partitioning statistics when Algorithm == "PBSM".
	PBSM *PBSMStats
}

// ObservedIOTime prices the join's disk activity on a machine,
// distinguishing sequential from random accesses — the "observed"
// methodology of Figure 2(d)-(f) and Figure 3. Machines with small
// on-disk buffers (below 256 KB) use the single-stream classification,
// reproducing the paper's Machine 2 observation that ST loses its
// layout advantage there.
func (r Result) ObservedIOTime(m iosim.Machine) time.Duration {
	if m.Disk.OnDiskBufferKB < 256 {
		return m.Disk.IOTime(r.IODirect, m.PageSize)
	}
	return m.Disk.IOTime(r.IO, m.PageSize)
}

// EstimatedIOTime prices the join the way earlier index-join studies
// did (Figure 2(a)-(c)): every page access is charged the average
// (random) read time.
func (r Result) EstimatedIOTime(m iosim.Machine) time.Duration {
	return m.Disk.EstimatedIOTime(r.IO.Total(), m.PageSize)
}

// CPUTime scales the measured computation onto a machine.
func (r Result) CPUTime(m iosim.Machine) time.Duration {
	return m.CPUTime(r.HostCPU)
}

// ObservedTotal is CPU plus observed I/O on a machine.
func (r Result) ObservedTotal(m iosim.Machine) time.Duration {
	return r.CPUTime(m) + r.ObservedIOTime(m)
}

// EstimatedTotal is CPU plus estimated I/O on a machine.
func (r Result) EstimatedTotal(m iosim.Machine) time.Duration {
	return r.CPUTime(m) + r.EstimatedIOTime(m)
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d pairs, io {%s}, cpu %v", r.Algorithm, r.Pairs, r.IO, r.HostCPU)
}

// run wraps the common scaffolding shared by every algorithm: a nil
// context normalized and the options validated and defaulted (the body
// receives both), the initial cancellation check, counter snapshots
// and wall-clock timing, the EmitBatch batcher (installed as the
// Options.Emit the body sees, flushed on success, its pooled buffer
// released either way), and the normalization of context errors into
// the ErrCanceled chain.
func run(ctx context.Context, opts Options, name string, body func(ctx context.Context, o Options, res *Result) error) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, wrapCanceled(err)
	}
	var bt *pairbuf.Batcher
	if o.EmitBatch != nil {
		bt = pairbuf.NewBatcher(o.EmitBatch)
		o.Emit = bt.Emit
		o.EmitBatch = nil
	}
	res := Result{Algorithm: name}
	before := o.Store.Counters()
	beforeDirect := o.Store.DirectCounters()
	start := time.Now()
	err = body(ctx, o, &res)
	if bt != nil {
		if err == nil {
			bt.Flush()
		}
		bt.Release()
	}
	if err != nil {
		return Result{}, wrapCanceled(err)
	}
	res.HostCPU = time.Since(start)
	res.IO = o.Store.Counters().Sub(before)
	res.IODirect = o.Store.DirectCounters().Sub(beforeDirect)
	return res, nil
}
