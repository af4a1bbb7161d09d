package pairbuf

import (
	"sync"

	"unijoin/internal/geom"
)

// recordPool recycles the []geom.Record buffers of the parallel engine:
// the fragments it distributes its inputs into — one per (worker,
// stripe, side), together a replicated copy of both inputs — and the
// copies a windowed join narrows its inputs into, so a server answering
// many joins a second grows them once instead of once per query. Sizes
// are only known once the buffer is filled, so a borrowed buffer may be
// empty and is grown by append like any slice.
//
// The pool holds boxed slices, *[]geom.Record, so that PutRecords does
// not allocate a slice header; the boxes of borrowed buffers wait in
// boxPool for the next PutRecords, so a warm borrow-and-return cycle
// allocates nothing.
var recordPool, boxPool sync.Pool

// maxPooledRecords bounds the capacity PutRecords keeps (1.5 MB of
// records), the pair pool's policy: the fragments of everyday joins
// are recycled, the outsized ones of a huge join are dropped so it
// does not pin its high-water mark in a long-lived server.
const maxPooledRecords = 1 << 16

// GetRecords borrows an empty record buffer of whatever capacity the
// pool has on hand (possibly none).
func GetRecords() []geom.Record {
	outstanding.Add(1)
	p, ok := recordPool.Get().(*[]geom.Record)
	if !ok {
		return nil
	}
	buf := (*p)[:0]
	*p = nil
	boxPool.Put(p)
	return buf
}

// PutRecords returns a buffer to the pool; callers must not touch the
// slice after PutRecords. Buffers that never grew and grossly
// oversized ones are dropped (see maxPooledRecords).
func PutRecords(buf []geom.Record) {
	outstanding.Add(-1)
	if cap(buf) == 0 || cap(buf) > maxPooledRecords {
		return
	}
	p, ok := boxPool.Get().(*[]geom.Record)
	if !ok {
		p = new([]geom.Record)
	}
	*p = buf[:0]
	recordPool.Put(p)
}
