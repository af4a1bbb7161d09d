package parallel

import (
	"context"
	"sync"
	"unsafe"

	"unijoin/internal/geom"
	"unijoin/internal/pairbuf"
)

// distCheckInterval is how many records a distribution worker
// classifies between context checks. Must be a power of two.
const distCheckInterval = 8192

// distSerialCutoff is the input size below which distribution runs
// inline: spawning goroutines for a few thousand records costs more
// than the classification itself.
const distSerialCutoff = 4096

// narrow copies the records of recs that intersect the window in input
// order into a buffer borrowed from the record pool, which the caller
// returns with PutRecords. It is the one place the engine tests a
// record against the window: what it leaves is all that measuring,
// sampling and distribution ever read.
func narrow(recs []geom.Record, window *geom.Rect) []geom.Record {
	out := pairbuf.GetRecords()
	for _, r := range recs {
		if r.Rect.Intersects(*window) {
			out = append(out, r)
		}
	}
	return out
}

// distribution is the outcome of the two-layer parallel distribution
// prefix: both inputs' records routed into per-(worker, stripe)
// fragments, one copy into each stripe a record overlaps, and counted
// as stripe-local or boundary-crossing.
//
// Fragments are not concatenated as they are filled: each stripe's
// sides are reassembled afterwards (stripes, gather) by the same
// workers, each taking its own run of stripes, so any copy is parallel
// work instead of a serial barrier. Worker w owns the w-th contiguous
// chunk of each input, so reading fragments in worker order reproduces
// the input order exactly — the distribution is deterministic and
// independent of the worker count, and inputs that arrive sorted yield
// sorted partitions.
type distribution struct {
	// fragsA[w][i] and fragsB[w][i] hold the records worker w routed
	// to stripe i, in input order. They are borrowed from the record
	// pool; release returns them.
	fragsA, fragsB [][][]geom.Record
	// sizeA/sizeB are per-stripe totals across fragments (replicated
	// records each side).
	sizeA, sizeB []int

	input      int64 // records distributed, both sides
	replicated int64 // stripe placements, both sides
	local      int64 // records contained in a single stripe
	boundary   int64 // records crossing at least one stripe boundary
}

// gather reassembles one side of partition i (frags is a
// distribution's fragsA or fragsB, n its sizeA[i] or sizeB[i]) in
// input order: the one non-empty fragment itself when a single worker
// routed records there — always, with one distribution worker — and
// otherwise the first non-empty fragment with the later workers'
// fragments appended to it. The copy therefore lands in a pooled
// buffer that release returns with all the others, and a warm pool
// makes it allocation-free. Either way the result is the engine's own
// memory, which may be sorted. Only the goroutine assembling partition
// i may call it.
func gather(frags [][][]geom.Record, i, n int) []geom.Record {
	first := -1
	for w := range frags {
		switch {
		case len(frags[w][i]) == n:
			return frags[w][i]
		case len(frags[w][i]) == 0:
		case first < 0:
			first = w
		default:
			frags[first][i] = append(frags[first][i], frags[w][i]...)
		}
	}
	return frags[first][i]
}

// release returns every fragment to the record pool; the distribution
// (and any slice gathered from it) must not be used afterwards.
func (d *distribution) release() {
	for _, frags := range [][][][]geom.Record{d.fragsA, d.fragsB} {
		for _, stripes := range frags {
			for _, f := range stripes {
				pairbuf.PutRecords(f)
			}
		}
	}
}

// distCounters is one worker's private tally, merged after the
// distribution barrier.
type distCounters struct {
	input, replicated, local, boundary int64
}

// distributeChunk routes one contiguous chunk of an input into the
// worker's private buckets: each record into every stripe its
// x-interval overlaps. A record inside one stripe counts as local, any
// other as a boundary record. It checks ctx every distCheckInterval
// records.
func distributeChunk(ctx context.Context, part *Partitioner, recs []geom.Record,
	buckets [][]geom.Record, c *distCounters) error {
	for n, r := range recs {
		if n&(distCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c.input++
		first, last := part.Range(r.Rect)
		if first == last {
			buckets[first] = append(buckets[first], r)
			c.local++
			c.replicated++
			continue
		}
		for i := first; i <= last; i++ {
			buckets[i] = append(buckets[i], r)
		}
		c.boundary++
		c.replicated += int64(last - first + 1)
	}
	return nil
}

// chunk returns the w-th of nw contiguous chunks of a slice of length
// n, the static split distribution workers own.
func chunk(n, w, nw int) (lo, hi int) {
	return n * w / nw, n * (w + 1) / nw
}

// distribute runs the two-layer distribution prefix of the parallel
// join: nw workers each route their private chunk of both inputs into
// per-(worker, stripe) fragments — no shared state, no locks — then the
// per-worker counters are summed.
// With one worker or tiny inputs everything runs inline on the
// calling goroutine.
func distribute(ctx context.Context, part *Partitioner, a, b []geom.Record, nw int) (*distribution, error) {
	k := part.Partitions()
	if len(a)+len(b) < distSerialCutoff {
		nw = 1
	}
	if nw < 1 {
		nw = 1
	}
	d := &distribution{
		fragsA: make([][][]geom.Record, nw),
		fragsB: make([][][]geom.Record, nw),
		sizeA:  make([]int, k),
		sizeB:  make([]int, k),
	}
	counters := make([]distCounters, nw)
	errs := make([]error, nw)
	run := func(w int) {
		d.fragsA[w] = make([][]geom.Record, k)
		d.fragsB[w] = make([][]geom.Record, k)
		for i := 0; i < k; i++ {
			d.fragsA[w][i], d.fragsB[w][i] = pairbuf.GetRecords(), pairbuf.GetRecords()
		}
		alo, ahi := chunk(len(a), w, nw)
		blo, bhi := chunk(len(b), w, nw)
		if err := distributeChunk(ctx, part, a[alo:ahi], d.fragsA[w], &counters[w]); err != nil {
			errs[w] = err
			return
		}
		errs[w] = distributeChunk(ctx, part, b[blo:bhi], d.fragsB[w], &counters[w])
	}
	forWorkers(nw, run)
	for w := 0; w < nw; w++ {
		if errs[w] != nil {
			d.release()
			return nil, errs[w]
		}
		d.input += counters[w].input
		d.replicated += counters[w].replicated
		d.local += counters[w].local
		d.boundary += counters[w].boundary
		for i := 0; i < k; i++ {
			d.sizeA[i] += len(d.fragsA[w][i])
			d.sizeB[i] += len(d.fragsB[w][i])
		}
	}
	return d, nil
}

// stripes assembles both sides of every stripe from the fragments,
// split by class under l's rule (layout.classes) and each class in sweep order,
// on the distribution's workers, each taking a contiguous run of
// stripes. Without owned, a side is gathered in place in the fragments
// (see gather) and split there, class A moving down over the records
// it replaces and class B following it from a scratch buffer each
// worker borrows from the pool. With owned, the split is the copy out
// of the fragments into one allocation per side — class A, then class
// B — so that the fragments may go back to the pool, and bytes is the
// size of those allocations. (Keeping the gathered fragments instead
// would save the copy but drain the pool, and the next build grows
// every fragment afresh: BenchmarkQueryParallel/after-append, one build
// per query, allocated twice the bytes and ran about 4 ms (20 %) slower
// that way.)
func (d *distribution) stripes(l *layout, owned bool) (st []stripe, bytes int64) {
	k := len(d.sizeA)
	st = make([]stripe, k)
	nw := len(d.fragsA)
	forWorkers(nw, func(w int) {
		scratch := pairbuf.GetRecords()
		assemble := func(frags [][][]geom.Record, i, n int) side {
			var recs []geom.Record
			if owned {
				recs = make([]geom.Record, 0, n)
				for _, f := range frags {
					recs, scratch = l.classes(i, f[i], recs, scratch)
				}
			} else {
				gathered := gather(frags, i, n)
				recs, scratch = l.classes(i, gathered, gathered[:0], scratch)
			}
			nA := len(recs)
			recs = append(recs, scratch...)
			scratch = scratch[:0]
			s := side{A: recs[:nA:nA], B: recs[nA:]}
			sortByLowerY(s.A)
			sortByLowerY(s.B)
			return s
		}
		lo, hi := chunk(k, w, nw)
		for i := lo; i < hi; i++ {
			st[i] = stripe{a: assemble(d.fragsA, i, d.sizeA[i]), b: assemble(d.fragsB, i, d.sizeB[i])}
		}
		pairbuf.PutRecords(scratch)
	})
	if owned {
		for _, s := range st {
			bytes += int64(cap(s.a.A)+cap(s.a.B)+cap(s.b.A)+cap(s.b.B)) * int64(unsafe.Sizeof(geom.Record{}))
		}
	}
	return st, bytes
}

// forWorkers runs fn(0) … fn(nw-1) on nw goroutines and waits for
// them all; one worker runs inline on the calling goroutine.
func forWorkers(nw int, fn func(w int)) {
	if nw == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
