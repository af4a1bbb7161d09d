package parallel

import (
	"context"
	"slices"
	"sync"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/pairbuf"
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
// per-worker chunks whose records are routed into private
// per-(worker, stripe) fragments with no locks, and the same workers
// then reassemble each stripe's fragments, split them by class — class
// A where a record starts inside the stripe's reference-point range,
// class B where it entered the stripe from the left — and sort each
// class if need be, so Report.PartitionWall scales with Workers. The sweep drains the
// stripes on a worker pool; each runs three forward-scan mini-joins —
// A×A, A×B and B×A, building no sweep structure — and so compares
// exactly the pairs whose reference point lies in its range, which are
// the pairs it reports: no pair is tested for ownership, and no B×B
// pair, which some other stripe reports, is compared at all.
// Options.Own narrows the result to one fleet shard's pairs by
// clamping the ranges the classes are decided against, so
// Report.Pairs, the callback and the counting-only path all see owned
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
	collect := o.EmitBatch != nil
	window := k
	if collect {
		window = rep.Workers + 1 // one stripe in the callback, one under each worker
	}
	buffers := make([][]geom.Pair, k)
	comparisons := make([]int64, k)
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
					pairs, err = sweepPartition(ctx, &l.stripes[i], &comparisons[i], &buffers[i], collect)
				}
				done <- sweptPartition{i, err}
				if err != nil {
					return
				}
				ws.Partitions++
				ws.Records += l.stripes[i].records()
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
		if buf := buffers[next]; len(buf) > 0 {
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
	for _, c := range comparisons {
		rep.Comparisons += c
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

// sweepPartition runs the array kernel over stripe s. It fills the
// partition's comparison and buffer slots; with collect set, the output
// buffer is borrowed from the pairbuf pool.
func sweepPartition(ctx context.Context, s *stripe, comparisons *int64, buffer *[]geom.Pair, collect bool) (int64, error) {
	k := kernel{ctx: ctx, budget: pollInterval, collect: collect}
	if collect {
		k.buf = pairbuf.Get()
	}
	if err := k.stripe(s); err != nil {
		if collect {
			pairbuf.Put(k.buf)
		}
		return 0, err
	}
	if collect {
		k.pairs = int64(len(k.buf))
		*buffer = k.buf
	}
	*comparisons = k.comparisons
	return k.pairs, nil
}

// pollInterval is how much kernel work — candidate comparisons plus
// records advanced, on one shared counter — runs between context
// polls. Work, not records: on tall inputs one record's forward scan
// can cover a whole partition.
const pollInterval = 16384

// kernel is the state of one partition's sweep: forward-scan plane
// sweeps over arrays in lower-y order, with no active-set structure at
// all. A sweep structure holds, for the record being processed, the
// records of the other input whose y-interval is still open; when both
// inputs are resident and sorted, the candidates the record has not
// met yet are simply the run of the other array that starts inside
// its own y-interval, and scanning that run in place replaces insert,
// expiry and search. Tsitsigkos & Mamoulis (2019) measured this to be
// the fastest configuration for resident inputs provided the stripes
// are fine enough to keep the runs short; stripeCount sees to that.
//
// Every pair the kernel finds is the stripe's to report: it only ever
// meets pairs with a class A member (see side), so it has no ownership
// test to make, and a counting sweep adds up its x tests and nothing
// else.
type kernel struct {
	ctx     context.Context
	collect bool
	buf     []geom.Pair

	budget      int   // work left before the next context poll
	comparisons int64 // candidates examined: x-overlap tests
	pairs       int64 // of those, the pairs (counting only)
}

// xTest is the x-overlap test of a scan: which edges of a run record
// can fail to meet the advancing record cur.
type xTest uint8

const (
	// overlap is the whole test, for the A×A mini-join.
	overlap xTest = iota
	// reachesCur is the test of an A record against B records: every
	// one of those starts left of the owner range, and cur inside it, so
	// a B record meets cur exactly when it reaches cur's left edge.
	reachesCur
	// startsInCur is the other way round: every A record starts right
	// of a B cur's left edge, so it meets cur exactly when it starts by
	// cur's right edge.
	startsInCur
)

// stripe sweeps one stripe's three mini-joins: A×A with the whole x
// test, then A×B and B×A (a's class first), which test one edge. The
// B×B pairs are never compared, and every pair compared and found is
// owned (side).
func (k *kernel) stripe(s *stripe) error {
	if err := k.sweep(s.a.A, s.b.A, overlap, overlap); err != nil {
		return err
	}
	if err := k.sweep(s.a.A, s.b.B, reachesCur, startsInCur); err != nil {
		return err
	}
	return k.sweep(s.a.B, s.b.A, startsInCur, reachesCur)
}

// sweep merges two runs: the side with the lower bottom edge advances
// (ties go to a, so coincident edges still meet), and the record
// leaving its run is matched against the records of the other run
// that start within its y-interval — under ta when a's record
// advances, under tb when b's does. Every y-overlapping pair is seen
// exactly once, from the member that starts first.
func (k *kernel) sweep(a, b []geom.Record, ta, tb xTest) error {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var err error
		if a[i].Rect.YLo <= b[j].Rect.YLo {
			err = k.scan(&a[i], b[j:], ta, true)
			i++
		} else {
			err = k.scan(&b[j], a[i:], tb, false)
			j++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scan matches cur against the leading records of others that start
// at or below cur's top edge, under t. The run is cut into stretches no
// longer than the remaining poll budget, so the context is polled on
// time without a counter inside the loop.
func (k *kernel) scan(cur *geom.Record, others []geom.Record, t xTest, curIsA bool) error {
	k.budget-- // the advance itself
	for {
		run := others[:min(len(others), k.budget)]
		var n int
		if k.collect {
			n = k.collectRun(cur, run, t, curIsA)
		} else {
			n = k.countRun(cur, run, t)
		}
		k.comparisons += int64(n)
		k.budget -= n
		if k.budget > 0 {
			return nil // the run ended before the budget did
		}
		if err := k.ctx.Err(); err != nil {
			return err
		}
		k.budget = pollInterval
		others = others[n:]
	}
}

// countRun counts the records of run that meet cur under t, up to the
// first that starts above cur's top edge, and returns how many it
// examined.
func (k *kernel) countRun(cur *geom.Record, run []geom.Record, t xTest) int {
	xlo, xhi, yhi := cur.Rect.XLo, cur.Rect.XHi, cur.Rect.YHi
	var hits int64
	n := len(run)
	switch t {
	case overlap:
		for i := range run {
			if run[i].Rect.YLo > yhi {
				n = i
				break
			}
			hits += b2i(run[i].Rect.XLo <= xhi) & b2i(xlo <= run[i].Rect.XHi)
		}
	case reachesCur:
		for i := range run {
			if run[i].Rect.YLo > yhi {
				n = i
				break
			}
			hits += b2i(xlo <= run[i].Rect.XHi)
		}
	case startsInCur:
		for i := range run {
			if run[i].Rect.YLo > yhi {
				n = i
				break
			}
			hits += b2i(run[i].Rect.XLo <= xhi)
		}
	}
	k.pairs += hits
	return n
}

// collectRun is countRun appending the pairs it finds to the buffer,
// the left component from input a. On BenchmarkStripeKernel one loop
// per test here was no faster than the switch per candidate, which
// always goes the same way within a scan.
func (k *kernel) collectRun(cur *geom.Record, run []geom.Record, t xTest, curIsA bool) int {
	xlo, xhi, yhi := cur.Rect.XLo, cur.Rect.XHi, cur.Rect.YHi
	for i := range run {
		o := &run[i]
		if o.Rect.YLo > yhi {
			return i
		}
		var meets bool
		switch t {
		case overlap:
			meets = o.Rect.XLo <= xhi && xlo <= o.Rect.XHi
		case reachesCur:
			meets = xlo <= o.Rect.XHi
		case startsInCur:
			meets = o.Rect.XLo <= xhi
		}
		if !meets {
			continue
		}
		if curIsA {
			k.buf = append(k.buf, geom.Pair{Left: cur.ID, Right: o.ID})
		} else {
			k.buf = append(k.buf, geom.Pair{Left: o.ID, Right: cur.ID})
		}
	}
	return len(run)
}

// b2i is 1 for true and 0 for false, which the compiler turns into a
// flag read rather than a branch.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
