// Package pairbuf pools the []geom.Pair batch buffers behind the
// EmitBatch fast path. Joins that report results in batches (the
// serial algorithms' batcher, the parallel engine's per-partition
// output buffers) borrow buffers here instead of allocating one per
// join or per partition, so a long-lived process — the query service
// the ROADMAP targets — reaches a steady state with no per-query
// buffer garbage.
package pairbuf

import (
	"sync"
	"sync/atomic"

	"unijoin/internal/geom"
)

// outstanding counts the buffers on loan from both pools.
var outstanding atomic.Int64

// Outstanding returns how many buffers are on loan: borrowed with Get,
// GetRecords or NewBatcher and not yet handed back with Put,
// PutRecords or Release. Once every join has returned it reads what
// it read before they started; a difference is a leak on some path.
//
// It is test instrumentation and nothing in the program reads it:
// internal/leakcheck requires it to read 0 once a package's tests have
// all ended, and the engine's cancellation tests compare it before and
// after one join. What production pays for it is one atomic add per
// loan and per return (a few hundred per join, none per record or
// pair). The count is process-wide, so a reading taken inside a test
// means something only while no other join runs in the process: such
// a test must not run in parallel with tests that join.
func Outstanding() int64 { return outstanding.Load() }

// BatchSize is the capacity of a fresh buffer and the flush threshold
// used by batching emitters: large enough to amortize the callback
// indirection over thousands of pairs, small enough (64 KB of pairs)
// to stay cache- and pool-friendly.
const BatchSize = 8192

var pool = sync.Pool{
	New: func() any {
		buf := make([]geom.Pair, 0, BatchSize)
		return &buf
	},
}

// Get borrows an empty buffer with at least BatchSize capacity.
func Get() []geom.Pair {
	outstanding.Add(1)
	return (*pool.Get().(*[]geom.Pair))[:0]
}

// maxPooledCap bounds the capacity Put keeps: a join that grew a
// buffer moderately past BatchSize donates the larger capacity for
// reuse, but the outsized buffers a huge-output query can build (the
// parallel engine appends a whole partition's results) are dropped,
// so one large query does not pin its high-water-mark memory in a
// long-lived server's pool forever.
const maxPooledCap = 4 * BatchSize

// Put returns a buffer to the pool; callers must not touch the slice
// after Put. Undersized and grossly oversized buffers are dropped
// (see maxPooledCap).
func Put(buf []geom.Pair) {
	outstanding.Add(-1)
	if cap(buf) < BatchSize || cap(buf) > maxPooledCap {
		return
	}
	buf = buf[:0]
	pool.Put(&buf)
}

// Batcher accumulates pairs into a pooled buffer and hands full
// batches to an EmitBatch-style callback — the emit machinery of the
// serial algorithms.
// The slice passed to fn is reused after fn returns.
type Batcher struct {
	fn  func([]geom.Pair)
	buf []geom.Pair
}

// NewBatcher borrows a pooled buffer for batching into fn.
func NewBatcher(fn func([]geom.Pair)) *Batcher {
	return &Batcher{fn: fn, buf: Get()}
}

// Emit adds one pair, flushing at the documented BatchSize threshold.
// The threshold is independent of the buffer's capacity: a pool-
// donated buffer may hold up to maxPooledCap pairs, and flushing only
// when it filled would deliver batches 4x the contract.
func (b *Batcher) Emit(p geom.Pair) {
	b.buf = append(b.buf, p)
	if len(b.buf) >= BatchSize {
		b.Flush()
	}
}

// Flush delivers any buffered pairs to the callback.
func (b *Batcher) Flush() {
	if len(b.buf) > 0 {
		b.fn(b.buf)
		b.buf = b.buf[:0]
	}
}

// Release returns the buffer to the pool; the Batcher must not be
// used afterwards. Callers flush first on success paths (an errored
// join drops its unflushed tail).
func (b *Batcher) Release() {
	Put(b.buf)
	b.buf = nil
}
