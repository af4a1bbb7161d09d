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
// A join is two steps: it lays out its stripes (a layout), then sweeps
// them. Join lays them out for itself, in pooled fragments that go
// back to the pool when it returns; Slot.Join keeps them for the joins
// after it. Under Options.Window the first thing the layout does is
// narrow each input to the records intersecting the window, in one
// serial pass into pooled buffers; everything after reads the narrowed
// inputs and never tests the window again. Unless Options.Partitions
// fixes it, the stripe count is then chosen for this join from one
// strided pass over the inputs: see stripeCount.
//
// Both steps are parallel. The distribution splits each input into
// per-worker chunks that are classified stripe-local vs
// boundary-crossing and routed into private per-(worker, stripe)
// fragments with no locks, and the same workers then reassemble each
// stripe's fragments and sort them if need be, so Report.PartitionWall
// scales with Workers. The sweep drains the stripes on a worker pool;
// each merges its two arrays with a forward scan — no sweep structure
// is built — emitting local-member pairs with no ownership test (they
// can only be generated in one stripe) and testing boundary×boundary
// pairs against the stripe's reference-point range. Options.Own
// narrows the result to one fleet shard's pairs by narrowing exactly
// those two things — the ranges and which records count as local — so
// Report.Pairs, the callbacks and the counting-only path all see owned
// pairs, with no second filter.
//
// With a callback set, a stripe's pairs reach it as soon as every
// earlier stripe's have — on the calling goroutine, in stripe-then-sweep
// order, while the workers are on the stripes after it — and the workers
// are dealt no more than a window of Workers+1 stripes past the one
// being handed over. So the first pairs leave after the first stripe,
// the pooled buffers on loan number at most that window whatever K is,
// and a callback that blocks holds the workers back instead of letting
// results pile up behind it. Without a callback there is nothing to
// hand over or to bound: the stripes are dealt all at once and the
// workers are left alone until the last one is swept.
//
// Canceling the context — from anywhere, the callback included — stops
// the dealing at once and every worker at its next poll (before each
// partition, and inside one every pollInterval comparisons; the
// distribution workers poll ctx every distCheckInterval records, and a
// layout is not finished until ctx has been polled once more after
// its last stripe is sorted). Join then waits for the workers and
// returns ctx's error, with every pooled buffer handed back.
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
	l, err := arrange(ctx, a, b, o, false)
	if err != nil {
		return Report{}, err
	}
	defer l.release()
	return l.sweep(ctx, o, start)
}

// sweep is the parallel phase of a join under o over the layout l,
// whose building began at start: PartitionWall is the time from then
// until the sweep begins, and Wall includes it.
func (l *layout) sweep(ctx context.Context, o Options, start time.Time) (Report, error) {
	k := l.part.Partitions()
	rep := Report{
		Workers:           min(o.Workers, k),
		Partitions:        k,
		InputRecords:      l.input,
		ReplicatedRecords: l.replicated,
		LocalRecords:      l.local,
		BoundaryRecords:   l.boundary,
	}
	if rep.InputRecords > 0 {
		rep.Replication = float64(rep.ReplicatedRecords) / float64(rep.InputRecords)
	}
	rep.PartitionWall = time.Since(start)

	// The parallel phase. This goroutine deals stripe indexes to the
	// workers, at most window of them ahead of the next stripe to hand
	// over, and hands each stripe over — its pooled buffer to the
	// callback, then back to the pool — once every earlier stripe has
	// been: a stripe's output is final the moment it is swept (a pair is
	// reported by exactly one stripe), so nothing waits for the pool to
	// drain. A counting join has nothing to hand over: its window is the
	// whole join, dealt at once, and this goroutine sleeps until the
	// workers are done instead of being woken stripe by stripe. A
	// partition's slots are written by the worker that sweeps it and
	// read here only after that worker's send on done, so the collection
	// needs no locks. Both channels hold a whole window: neither side
	// ever blocks on a send.
	collect := o.Emit != nil || o.EmitBatch != nil
	window := k
	if collect {
		window = rep.Workers + 1 // one stripe in the callback, one under each worker
	}
	buffers := make([][]geom.Pair, k)
	partStats := make([]sweep.Stats, k)
	noTest := make([]int64, k)
	swept := make([]bool, k)
	rep.PerWorker = make([]WorkerStats, rep.Workers)
	work := make(chan int, window)
	done := make(chan sweptPartition, window)

	sweepStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < rep.Workers; w++ {
		wg.Add(1)
		go func(ws *WorkerStats) {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				var pairs int64
				err := ctx.Err() // a canceled join starts no further partition
				if err == nil {
					pairs, err = sweepPartition(ctx, l.part, i, l.a[i], l.b[i],
						&partStats[i], &noTest[i], &buffers[i], collect)
				}
				done <- sweptPartition{i, err}
				if err != nil {
					return
				}
				ws.Partitions++
				ws.Records += int64(len(l.a[i]) + len(l.b[i]))
				ws.Pairs += pairs
				ws.Busy += time.Since(t0)
			}
		}(&rep.PerWorker[w])
	}
	dealt := 0
	deal := func(upTo int) {
		for ; dealt < upTo; dealt++ {
			work <- dealt
		}
	}
	deal(min(k, window))
	err := ctx.Err()
	for next := 0; collect && next < k && err == nil; {
		if !swept[next] {
			select {
			case p := <-done:
				swept[p.i], err = true, p.err
			case <-ctx.Done():
				err = ctx.Err()
			}
			continue
		}
		if buf := buffers[next]; o.EmitBatch == nil {
			for _, p := range buf {
				o.Emit(p)
			}
		} else if len(buf) > 0 {
			o.EmitBatch(buf)
		}
		pairbuf.Put(buffers[next])
		buffers[next] = nil
		next++
		deal(min(k, next+window))
		err = ctx.Err() // the callback may be what canceled
	}
	close(work)
	wg.Wait()
	rep.SweepWall = time.Since(sweepStart)
	// The reports nobody was waiting for: a counting join's, and a
	// failure after the hand-over gave up.
	for err == nil && len(done) > 0 {
		err = (<-done).err
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		for _, buf := range buffers {
			if buf != nil {
				pairbuf.Put(buf)
			}
		}
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
	rep.Wall = time.Since(start)
	return rep, nil
}

// sweptPartition is a worker's word that partition i has been swept —
// its slots are filled — or that the sweep failed.
type sweptPartition struct {
	i   int
	err error
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

// sweepPartition runs the array kernel over partition i's two sides,
// ra and rb, in sweep order. It fills the partition's stat, no-test,
// and buffer slots; with collect set, the output buffer is borrowed
// from the pairbuf pool.
func sweepPartition(ctx context.Context, part *Partitioner, i int, ra, rb []geom.Record,
	stats *sweep.Stats, noTest *int64, buffer *[]geom.Pair, collect bool) (int64, error) {
	k := part.kernel(ctx, i, collect)
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
	winXLo  geom.Coord    // the window's left edge, which clips them
	collect bool
	buf     []geom.Pair

	budget      int   // work left before the next context poll
	comparisons int64 // x-overlap tests
	candidates  int64 // tests that passed, before the ownership test
	pairs       int64 // pairs this partition owns
	noTest      int64 // of those, emitted with no ownership test
}

// kernel returns the kernel of stripe i, owning the stripe's
// reference-point range under the join's window.
func (p *Partitioner) kernel(ctx context.Context, i int, collect bool) kernel {
	k := kernel{ctx: ctx, winXLo: p.winXLo, budget: pollInterval, collect: collect}
	k.own.Lo, k.own.Hi = p.OwnerRange(i)
	return k
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
// reference point, the left edge of the intersection — clipped to the
// window's when the join has one, which costs these pairs one more max
// and the local ones nothing: the clipped point is still a point of
// both records, so it lies in the one stripe a Local record lies in.
// The rule is geom.Interval's, the one a fleet's shards are cut by;
// under Options.Own the range arrives clamped to the shard's and Local
// already means "inside the shard too", so a shard's join pays nothing
// here that an unsharded one does not.
func (k *kernel) hit(x, y *geom.Record) {
	k.candidates++
	if x.Local || y.Local {
		k.noTest++
	} else if !k.own.OwnsPair(x.Rect.XLo, y.Rect.XLo, k.winXLo) {
		return // owned by another stripe, or another shard
	}
	k.pairs++
	if k.collect {
		k.buf = append(k.buf, geom.Pair{Left: x.ID, Right: y.ID})
	}
}
