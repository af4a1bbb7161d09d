package unijoin

import (
	"iter"

	"unijoin/internal/core"
	"unijoin/internal/ingest"
	"unijoin/internal/parallel"
)

// JoinResult is the accounting of one join: pair count, I/O and
// memory statistics, and per-machine cost reports.
type JoinResult struct {
	core.Result
	// Decision is set for AlgAuto: what the planner chose and why.
	Decision *core.Decision
}

// Results is the outcome of Query.Run: the full JoinResult accounting
// (promoted, so res.IO, res.HostCPU, res.ObservedTotal(m), ... read as
// before) plus streaming-friendly access to the result pairs.
//
// The embedded pair *count* is shadowed by the Pairs iterator method;
// read it as Count() (or res.JoinResult.Pairs).
type Results struct {
	JoinResult

	// Left and Right are the two inputs as the query pinned them: the
	// one epoch of each relation that every number in this Results —
	// the pair count included — was computed on. Report record counts
	// from here, not from the live relation, which may have moved on.
	Left, Right PinnedView

	// Parallel is the in-memory engine's wall-clock report, set only
	// when the query ran on it: AlgParallel anywhere, AlgPQ and AlgSSSJ
	// on a Catalog's workspace.
	Parallel *parallel.Report
	// Prepared says, for a query the in-memory engine ran, what this
	// query had to do to obtain each input's prepared run, left then
	// right: ingest.BuildNone when the run was warm, ingest.BuildMerge
	// or ingest.BuildFull when this was the query that built it for
	// its epoch (the time is Result.PrepareWall).
	Prepared [2]ingest.Build

	collected bool
	pairs     []Pair
}

// Count returns the number of result pairs — the quantity the paper's
// tables report. It is always set, whether or not pairs were
// collected or streamed.
func (r *Results) Count() int64 { return r.JoinResult.Pairs }

// Collected reports whether the query buffered its result pairs for
// iteration with Pairs. Queries run with Emit, EmitBatch, or
// CountOnly stream or drop their pairs instead and yield an empty
// iterator.
func (r *Results) Collected() bool { return r.collected }

// Pairs returns a range-over-func iterator over the result pairs, in
// the deterministic order the join reported them:
//
//	res, _ := ws.Query(a, b).Run(ctx)
//	for p := range res.Pairs() {
//		fmt.Println(p.Left, p.Right)
//	}
//
// Pairs are available when the query collected them (the default when
// no Emit/EmitBatch callback and no CountOnly option was given); see
// Collected.
func (r *Results) Pairs() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		for _, p := range r.pairs {
			if !yield(p) {
				return
			}
		}
	}
}

// PairSlice returns the collected pairs as a slice (nil when the
// query did not collect). The slice is owned by the Results; callers
// must not modify it.
func (r *Results) PairSlice() []Pair { return r.pairs }
