package server

import (
	"time"

	"unijoin/internal/obs"
)

// joinPhases hangs a finished join's phases under its root span. A
// prepare child leads only when this query merged an appended epoch's
// prepared run (its absence is the cache hit); then partition; the sweep and
// the stream both start when that ends (streaming happens from the
// sweep's emit callbacks, so the two overlap rather than chain). The
// stream phase is what the handler goroutine spends in the Stream:
// packing batches and the flushes it makes inline; linger flushes run
// on the stream's timer and are not in it.
func joinPhases(root *obs.Span, prepare, partition, sweep, stream time.Duration) {
	if prepare > 0 {
		root.Child("prepare", 0, prepare)
	}
	root.Child("partition", prepare, partition)
	root.Child("sweep", prepare+partition, sweep)
	root.Child("stream", prepare+partition, stream)
}

// windowPhases hangs a finished window query's phases under its root:
// the scan is everything that wasn't spent in the Stream (packing and
// inline flushes, as in joinPhases), and the stream child interleaves
// it (emit callbacks run inside the scan), so both start at the root.
func windowPhases(root *obs.Span, stream time.Duration) {
	root.Child("scan", 0, max(root.Duration-stream, 0))
	root.Child("stream", 0, stream)
}
