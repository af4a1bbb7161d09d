package parallel

import (
	"context"
	"errors"
	"fmt"
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
// Unless Options.Partitions fixes it, the stripe count is chosen for
// this join from one strided pass over the inputs (a full pass under a
// window, whose selectivity is what matters most): see stripeCount.
//
// Both phases are parallel. The distribution prefix splits each input
// into per-worker chunks that are window-filtered, classified
// stripe-local vs boundary-crossing, and routed into private
// per-(worker, stripe) fragments with no locks, so
// Report.PartitionWall scales with Workers. The sweep phase drains
// the partitions on a worker pool; each partition reassembles its
// fragments, sorts them if need be, and merges the two arrays with a
// forward scan — no sweep structure is built — emitting local-member
// pairs with no ownership test (they can only be generated in one
// stripe) and testing boundary×boundary pairs against the stripe's
// reference-point range. Options.Own narrows the result to one fleet
// shard's pairs by narrowing exactly those two things — the ranges and
// which records count as local — so Report.Pairs, the callbacks and
// the counting-only path all see owned pairs, with no second filter.
//
// The worker pool drains a partition channel and selects on
// ctx.Done(), so canceling the context stops every worker at its next
// partition boundary (and, through the kernel's polls every
// pollInterval comparisons, mid-partition too); the distribution
// workers poll ctx the same way. Join then returns ctx's error, with
// every pooled buffer handed back.
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

	if o.Partitions <= 0 {
		o.Partitions = max(o.Workers,
			stripeCount(measure(a, o.Window), measure(b, o.Window), o.Universe, o.Window))
	}
	var part *Partitioner
	if o.Window == nil && len(o.SortedSamples) > 0 {
		part = NewPartitionerFromSamples(o.Universe, o.Partitions, o.SortedSamples...)
	} else {
		part = NewPartitionerWindowed(o.Universe, o.Partitions, o.Window, a, b)
	}
	part.own = o.Own
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
				pairs, err := sweepPartition(ctx, part, i, dist,
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
// fragments, puts both sides in sweep order, and runs the array kernel
// over them. It fills the partition's stat, no-test, and buffer slots;
// with collect set, the output buffer is borrowed from the pairbuf
// pool.
func sweepPartition(ctx context.Context, part *Partitioner, i int, dist *distribution,
	stats *sweep.Stats, noTest *int64, buffer *[]geom.Pair, collect bool) (int64, error) {
	ra := gather(dist.fragsA, i, dist.sizeA[i])
	rb := gather(dist.fragsB, i, dist.sizeB[i])
	sortByLowerY(ra)
	sortByLowerY(rb)
	k := kernel{ctx: ctx, budget: pollInterval, collect: collect}
	k.own.Lo, k.own.Hi = part.OwnerRange(i)
	if collect {
		k.buf = pairbuf.Get()
	}
	if err := k.sweep(ra, rb); err != nil {
		if collect {
			pairbuf.Put(k.buf)
		}
		return 0, err
	}
	*stats = sweep.Stats{Pairs: k.candidates, Comparisons: k.comparisons}
	*noTest = k.noTest
	if collect {
		*buffer = k.buf
	}
	return k.pairs, nil
}

// pollInterval is how much kernel work — candidate comparisons plus
// records advanced, on one shared counter — runs between context
// polls. Work, not records: on tall inputs one record's forward scan
// can cover a whole partition.
const pollInterval = 16384

// kernel is the state of one partition's sweep: a forward-scan plane
// sweep over two arrays in lower-y order, with no active-set structure
// at all. A sweep structure holds, for the record being processed, the
// records of the other input whose y-interval is still open; when both
// inputs are resident and sorted, the candidates the record has not
// met yet are simply the run of the other array that starts inside
// its own y-interval, and scanning that run in place replaces insert,
// expiry and search. Tsitsigkos & Mamoulis (2019) measured this to be
// the fastest configuration for resident inputs provided the stripes
// are fine enough to keep the runs short; stripeCount sees to that.
type kernel struct {
	ctx     context.Context
	own     geom.Interval // reference points this stripe owns
	collect bool
	buf     []geom.Pair

	budget      int   // work left before the next context poll
	comparisons int64 // x-overlap tests
	candidates  int64 // tests that passed, before the ownership test
	pairs       int64 // pairs this partition owns
	noTest      int64 // of those, emitted with no ownership test
}

// sweep merges the two runs: the side with the lower bottom edge
// advances (ties go to a, so coincident edges still meet), and the
// record leaving its run is matched against the records of the other
// run that start within its y-interval. Every y-overlapping pair is
// seen exactly once, from the member that starts first.
func (k *kernel) sweep(a, b []geom.Record) error {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var err error
		if a[i].Rect.YLo <= b[j].Rect.YLo {
			err = k.scan(&a[i], b[j:], true)
			i++
		} else {
			err = k.scan(&b[j], a[i:], false)
			j++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scan tests cur against the leading records of others that start at
// or below cur's top edge. The loop is cut into stretches no longer
// than the remaining poll budget, so the context is polled on time
// without a counter inside the loop.
func (k *kernel) scan(cur *geom.Record, others []geom.Record, curIsA bool) error {
	xlo, xhi, yhi := cur.Rect.XLo, cur.Rect.XHi, cur.Rect.YHi
	k.budget-- // the advance itself
	n := 0
	for {
		stop := min(len(others), n+k.budget)
		from := n
		for ; n < stop; n++ {
			o := &others[n]
			if o.Rect.YLo > yhi {
				break
			}
			if o.Rect.XLo <= xhi && xlo <= o.Rect.XHi {
				if curIsA {
					k.hit(cur, o)
				} else {
					k.hit(o, cur)
				}
			}
		}
		k.comparisons += int64(n - from)
		k.budget -= n - from
		if k.budget > 0 {
			return nil // the run ended before the budget did
		}
		if err := k.ctx.Err(); err != nil {
			return err
		}
		k.budget = pollInterval
	}
}

// hit handles one intersecting pair (x from a, y from b), counting
// only the pairs this partition owns: a pair with a stripe-local
// member is emitted with no ownership test (the two-layer fast path —
// a Local record exists in exactly one stripe, so the pair cannot be
// seen anywhere else), while a boundary×boundary pair meets in
// several stripes and is kept only by the one containing its
// reference point, the left edge of the intersection. The rule is
// geom.Interval's, the one a fleet's shards are cut by; under
// Options.Own the range arrives clamped to the shard's and Local
// already means "inside the shard too", so a shard's join pays nothing
// here that an unsharded one does not.
func (k *kernel) hit(x, y *geom.Record) {
	k.candidates++
	if x.Local || y.Local {
		k.noTest++
	} else if !k.own.OwnsPair(x.Rect.XLo, y.Rect.XLo) {
		return // owned by another stripe, or another shard
	}
	k.pairs++
	if k.collect {
		k.buf = append(k.buf, geom.Pair{Left: x.ID, Right: y.ID})
	}
}

// Serial is the single-threaded wall-clock baseline: the same window
// filtering, one sort of each side, and one plane sweep over the full
// universe with the paper's Striped-Sweep structure at its default
// resolution — SSSJ's kernel without the simulated disk, and
// deliberately not Join's array kernel, so that the two check each
// other. The inputs are not modified; Emit (if set) is called in
// sweep order as pairs are found, and EmitBatch receives pooled
// batches in the same order.
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
	if o.Own != nil {
		return Report{}, fmt.Errorf("parallel: Options.Own on Serial: %w", errors.ErrUnsupported)
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
		sweep.NewSliceSource(sa), sweep.NewSliceSource(sb),
		sweep.NewStripedFor(o.Universe, sweep.DefaultStrips),
		sweep.NewStripedFor(o.Universe, sweep.DefaultStrips), sink)
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
