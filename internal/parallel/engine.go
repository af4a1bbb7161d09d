package parallel

import (
	"context"
	"slices"
	"sync"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/pairbuf"
	"unijoin/internal/sweep"
)

// Join computes all intersecting pairs between a and b on a worker
// pool, reporting wall-clock statistics. The inputs need not be
// sorted and are not modified — callers may share them between
// concurrent joins; each result pair is produced exactly once (left
// component from a), regardless of how many stripes the pair's
// rectangles were replicated into. Inputs that do arrive ordered by
// geom.ByLowerY (a relation's prepared run) are recognized as such
// partition by partition and never re-sorted; the result, pair
// sequence included, is the same either way.
//
// Both phases are parallel. The distribution prefix splits each input
// into per-worker chunks that are window-filtered, classified
// stripe-local vs boundary-crossing, and routed into private
// per-(worker, stripe) fragments with no locks, so
// Report.PartitionWall scales with Workers. The sweep phase drains
// the partitions on a worker pool; each partition reassembles its
// fragments, sorts them if need be, and sweeps, emitting local-member
// pairs with no ownership test (they can only be generated in one
// stripe) and testing boundary×boundary pairs against the stripe's
// reference-point range.
//
// The worker pool drains a partition channel and selects on
// ctx.Done(), so canceling the context stops every worker at its next
// partition boundary (and, through the sweep kernel's periodic
// checks, mid-partition too); the distribution workers poll ctx the
// same way. Join then returns ctx's error.
func Join(ctx context.Context, a, b []geom.Record, o Options) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, err := o.withDefaults()
	if err != nil {
		return Report{}, err
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	start := time.Now()
	rep := Report{Workers: o.Workers}

	var part *Partitioner
	if o.Window == nil && len(o.SortedSamples) > 0 {
		part = NewPartitionerFromSamples(o.Universe, o.Partitions, o.SortedSamples...)
	} else {
		part = NewPartitionerWindowed(o.Universe, o.Partitions, o.Window, a, b)
	}
	k := part.Partitions()
	rep.Partitions = k
	if o.Workers > k {
		rep.Workers = k
	}
	dist, err := distribute(ctx, part, a, b, o.Window, o.Workers)
	if err != nil {
		return Report{}, err
	}
	defer dist.release()
	rep.InputRecords = dist.input
	rep.ReplicatedRecords = dist.replicated
	rep.LocalRecords = dist.local
	rep.BoundaryRecords = dist.boundary
	if rep.InputRecords > 0 {
		rep.Replication = float64(rep.ReplicatedRecords) / float64(rep.InputRecords)
	}
	for i := 0; i < k; i++ {
		if n := dist.sizeA[i] + dist.sizeB[i]; n > rep.MaxPartitionRecords {
			rep.MaxPartitionRecords = n
		}
	}
	rep.PartitionWall = time.Since(start)

	// The parallel phase. Workers drain the partition channel and
	// select on cancellation; every per-partition and per-worker slot
	// is owned by exactly one goroutine, so the collection needs no
	// locks.
	collect := o.Emit != nil || o.EmitBatch != nil
	buffers := make([][]geom.Pair, k)
	partStats := make([]sweep.Stats, k)
	noTest := make([]int64, k)
	rep.PerWorker = make([]WorkerStats, rep.Workers)
	work := make(chan int, k)
	for i := 0; i < k; i++ {
		work <- i
	}
	close(work)
	errs := make(chan error, rep.Workers)

	sweepStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < rep.Workers; w++ {
		wg.Add(1)
		go func(ws *WorkerStats) {
			defer wg.Done()
			for {
				var i int
				var ok bool
				select {
				case <-ctx.Done():
					return
				case i, ok = <-work:
					if !ok {
						return
					}
				}
				t0 := time.Now()
				pairs, err := sweepPartition(ctx, part, i, dist, o,
					&partStats[i], &noTest[i], &buffers[i], collect)
				if err != nil {
					errs <- err
					return
				}
				ws.Partitions++
				ws.Records += int64(dist.sizeA[i] + dist.sizeB[i])
				ws.Pairs += pairs
				ws.Busy += time.Since(t0)
			}
		}(&rep.PerWorker[w])
	}
	wg.Wait()
	rep.SweepWall = time.Since(sweepStart)
	releaseBuffers := func() {
		for i, buf := range buffers {
			if buf != nil {
				pairbuf.Put(buf)
				buffers[i] = nil
			}
		}
	}
	select {
	case err := <-errs:
		releaseBuffers()
		return Report{}, err
	default:
	}
	if err := ctx.Err(); err != nil {
		releaseBuffers()
		return Report{}, err
	}

	for _, ws := range rep.PerWorker {
		rep.Pairs += ws.Pairs
	}
	for _, n := range noTest {
		rep.NoTestPairs += n
	}
	for _, st := range partStats {
		rep.Sweep.Pairs += st.Pairs
		rep.Sweep.Comparisons += st.Comparisons
		if st.MaxLen > rep.Sweep.MaxLen {
			rep.Sweep.MaxLen = st.MaxLen
		}
		if st.MaxBytes > rep.Sweep.MaxBytes {
			rep.Sweep.MaxBytes = st.MaxBytes
		}
	}
	if collect {
		// Replay in deterministic partition order on the caller's
		// goroutine. The batch path hands each partition's pooled
		// buffer to the callback whole — one indirect call per
		// partition instead of one per pair — then recycles it.
		for i, buf := range buffers {
			if o.EmitBatch != nil {
				if len(buf) > 0 {
					o.EmitBatch(buf)
				}
			} else {
				for _, p := range buf {
					o.Emit(p)
				}
			}
			pairbuf.Put(buf)
			buffers[i] = nil
		}
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// sortByLowerY puts recs in sweep order in place. Distribution
// preserves input order, so inputs that arrive in that order — a
// relation's prepared run — cost one linear check here and no sort;
// anything else gets the sort.
func sortByLowerY(recs []geom.Record) {
	if !slices.IsSortedFunc(recs, geom.ByLowerY) {
		slices.SortFunc(recs, geom.ByLowerY)
	}
}

// sweepPartition reassembles one partition from its distribution
// fragments, puts both sides in sweep order, and sweeps them, counting
// only the pairs this partition owns: pairs with a stripe-local member are
// emitted with no ownership test (the two-layer fast path — a Local
// record exists in exactly one stripe, so the pair cannot be seen
// anywhere else), while boundary×boundary pairs pay the reference-
// point test against the stripe's owner range. It fills the
// partition's stat, no-test, and buffer slots; with collect set, the
// output buffer is borrowed from the pairbuf pool.
func sweepPartition(ctx context.Context, part *Partitioner, i int, dist *distribution, o Options,
	stats *sweep.Stats, noTest *int64, buffer *[]geom.Pair, collect bool) (int64, error) {
	ra := gather(dist.fragsA, i, dist.sizeA[i])
	rb := gather(dist.fragsB, i, dist.sizeB[i])
	sortByLowerY(ra)
	sortByLowerY(rb)
	stripe := part.Stripe(i)
	ownLo, ownHi := part.OwnerRange(i)
	var pairs, skipped int64
	var buf []geom.Pair
	if collect {
		buf = pairbuf.Get()
	}
	st, err := sweep.Join(ctx,
		sweep.NewSliceSource(ra), sweep.NewSliceSource(rb),
		o.newStructure(stripe), o.newStructure(stripe),
		func(x, y geom.Record) {
			if !x.Local && !y.Local {
				// Both records cross stripe boundaries, so the pair
				// meets in several stripes; the reference-point test
				// — the pair belongs to the stripe containing the
				// intersection's left edge — keeps exactly one copy.
				ref := x.Rect.XLo
				if y.Rect.XLo > ref {
					ref = y.Rect.XLo
				}
				if ref < ownLo || ref >= ownHi {
					return // this pair is owned by another stripe
				}
			} else {
				skipped++
			}
			pairs++
			if collect {
				buf = append(buf, geom.Pair{Left: x.ID, Right: y.ID})
			}
		})
	if err != nil {
		pairbuf.Put(buf)
		return 0, err
	}
	*stats = st
	*noTest = skipped
	if collect {
		*buffer = buf
	}
	return pairs, nil
}

// Serial is the single-threaded wall-clock baseline: the same window
// filtering, one sort of each side, and one plane sweep over the full
// universe — SSSJ's kernel without the simulated disk. The inputs are
// not modified; Emit (if set) is called in sweep order as pairs are
// found, and EmitBatch receives pooled batches in the same order.
//
// Serial's report mirrors Join's accounting for the degenerate
// one-stripe case: every record is local to the single partition and
// every pair is emitted without an ownership test, so LocalRecords
// equals InputRecords and NoTestPairs equals Pairs. Replication is 1
// for non-empty inputs and 0 for empty ones, as documented on Report.
func Serial(ctx context.Context, a, b []geom.Record, o Options) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, err := o.withDefaults()
	if err != nil {
		return Report{}, err
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	start := time.Now()
	rep := Report{Workers: 1, Partitions: 1}

	sa := append([]geom.Record(nil), filterWindow(a, o.Window)...)
	sb := append([]geom.Record(nil), filterWindow(b, o.Window)...)
	rep.InputRecords = int64(len(sa) + len(sb))
	rep.ReplicatedRecords = rep.InputRecords
	rep.LocalRecords = rep.InputRecords
	if rep.InputRecords > 0 {
		rep.Replication = 1
	}
	rep.MaxPartitionRecords = len(sa) + len(sb)
	rep.PartitionWall = time.Since(start)

	sweepStart := time.Now()
	sortByLowerY(sa)
	sortByLowerY(sb)
	mk := func() sweep.Structure {
		if o.UseForwardSweep {
			return sweep.NewForward()
		}
		strips := o.Strips
		if strips <= 0 {
			strips = sweep.DefaultStrips
		}
		return sweep.NewStripedFor(o.Universe, strips)
	}
	emit := o.Emit
	var bt *pairbuf.Batcher
	if o.EmitBatch != nil {
		bt = pairbuf.NewBatcher(o.EmitBatch)
		emit = bt.Emit
	}
	var sink func(x, y geom.Record)
	if emit != nil {
		sink = func(x, y geom.Record) { emit(geom.Pair{Left: x.ID, Right: y.ID}) }
	}
	st, sweepErr := sweep.Join(ctx,
		sweep.NewSliceSource(sa), sweep.NewSliceSource(sb), mk(), mk(), sink)
	if bt != nil {
		if sweepErr == nil {
			bt.Flush()
		}
		bt.Release()
	}
	if sweepErr != nil {
		return Report{}, sweepErr
	}
	rep.Pairs = st.Pairs
	rep.NoTestPairs = st.Pairs
	rep.Sweep = st
	rep.SweepWall = time.Since(sweepStart)
	rep.Wall = time.Since(start)
	rep.PerWorker = []WorkerStats{{
		Partitions: 1,
		Records:    rep.InputRecords,
		Pairs:      rep.Pairs,
		Busy:       rep.SweepWall,
	}}
	return rep, nil
}
