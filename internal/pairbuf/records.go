package pairbuf

import (
	"sync"

	"unijoin/internal/geom"
)

// recordPool recycles the []geom.Record fragments the parallel engine
// distributes its inputs into — one per (worker, stripe, side),
// together a replicated copy of both inputs — so a server answering
// many joins a second grows them once instead of once per query.
// Fragment sizes are only known after distribution, so a borrowed
// buffer may be empty and is grown by append like any slice.
var recordPool sync.Pool

// maxPooledRecords bounds the capacity PutRecords keeps (1.5 MB of
// records), the pair pool's policy: the fragments of everyday joins
// are recycled, the outsized ones of a huge join are dropped so it
// does not pin its high-water mark in a long-lived server.
const maxPooledRecords = 1 << 16

// GetRecords borrows an empty record buffer of whatever capacity the
// pool has on hand (possibly none).
func GetRecords() []geom.Record {
	outstanding.Add(1)
	if p, ok := recordPool.Get().(*[]geom.Record); ok {
		return (*p)[:0]
	}
	return nil
}

// PutRecords returns a buffer to the pool; callers must not touch the
// slice after PutRecords. Buffers that never grew and grossly
// oversized ones are dropped (see maxPooledRecords).
func PutRecords(buf []geom.Record) {
	outstanding.Add(-1)
	if cap(buf) == 0 || cap(buf) > maxPooledRecords {
		return
	}
	buf = buf[:0]
	recordPool.Put(&buf)
}
