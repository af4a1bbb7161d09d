package parallel

import (
	"context"
	"sync"

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

// narrow copies the records of recs that intersect the window — every
// record when there is none — in input order into a buffer borrowed
// from the record pool, which the caller returns with PutRecords. It is
// the one place the engine tests a record against the window: what it
// leaves is all that measuring, sampling and distribution ever read.
func narrow(recs []geom.Record, window *geom.Rect) []geom.Record {
	out := pairbuf.GetRecords()
	if window == nil {
		return append(out, recs...)
	}
	for _, r := range recs {
		if r.Rect.Intersects(*window) {
			out = append(out, r)
		}
	}
	return out
}

// distribution is the outcome of the two-layer parallel distribution
// prefix: both inputs classified stripe-local vs boundary-crossing and
// routed into per-(worker, stripe) fragments.
//
// Fragments deliberately stay unconcatenated: each partition's sweep
// reassembles its own side on the worker that sweeps it (see gather), so
// any copy is part of the parallel sweep phase instead of a serial
// barrier. Worker w owns the w-th contiguous chunk of each input, so
// reading fragments in worker order reproduces the input order
// exactly — the distribution is deterministic and independent of the
// worker count, and inputs that arrive sorted yield sorted partitions.
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
// memory, which the sweep may sort. Only the goroutine sweeping
// partition i may call it.
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

// distributeChunk classifies one contiguous chunk of an input,
// appending into the worker's private buckets. Records whose x-interval
// lies inside one stripe — and inside the interval the join owns, when
// it reports one shard's share only — are tagged Local:
// every pair such a record takes part in is found in that stripe alone
// and is this join's to report. Crossing records are replicated
// untagged into every stripe they overlap; a record that fits its
// stripe but pokes out of the owned interval goes untagged into that
// one stripe and counts as a boundary record. It checks ctx every
// distCheckInterval records.
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
		if first == last && (part.own == nil || part.own.Covers(r.Rect)) {
			r.Local = true
			buckets[first] = append(buckets[first], r)
			c.local++
			c.replicated++
			continue
		}
		r.Local = false
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
// join: nw workers each classify and route their private chunk of both
// inputs into per-(worker, stripe) fragments — no shared state, no
// locks — then the per-worker counters are summed.
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
	if nw == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	}
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
