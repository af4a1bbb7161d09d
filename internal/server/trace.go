package server

import (
	"time"

	"unijoin/internal/obs"
)

// joinSpan assembles a join request's span tree from the phases the
// engine and the handler measured. A prepare child leads only when
// this query built or merged a prepared run (its absence is the cache
// hit); then partition; the sweep and the stream both start when that
// ends (streaming happens from the sweep's emit callbacks, so the two
// overlap rather than chain).
func joinSpan(start time.Time, elapsed, prepare, partition, sweep, stream time.Duration) *obs.Span {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: "server.join",
		Start: start, Duration: elapsed,
	}
	if prepare > 0 {
		root.Child("prepare", 0, prepare)
	}
	root.Child("partition", prepare, partition)
	root.Child("sweep", prepare+partition, sweep)
	root.Child("stream", prepare+partition, stream)
	return root
}

// windowSpan assembles a window request's span tree: the scan is
// everything that wasn't spent encoding/flushing, and the stream child
// interleaves it (emit callbacks run inside the scan), so both start
// at the root.
func windowSpan(start time.Time, elapsed, stream time.Duration) *obs.Span {
	root := &obs.Span{
		ID: obs.NewSpanID(), Name: "server.window",
		Start: start, Duration: elapsed,
	}
	scan := elapsed - stream
	if scan < 0 {
		scan = 0
	}
	root.Child("scan", 0, scan)
	root.Child("stream", 0, stream)
	return root
}
