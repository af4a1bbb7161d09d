// Package parallel is the multicore, in-memory execution engine for
// the filter step: it partitions the universe into vertical stripes,
// sweeps each stripe's two record arrays on its own goroutine, and
// reports wall-clock time instead of simulated I/O counts.
//
// Where the rest of the repository reproduces the EDBT 2000 paper's
// external-memory apparatus — algorithms measured in simulated page
// accesses — this package follows the in-memory line of work that
// succeeded it: "Parallel In-Memory Evaluation of Spatial Joins"
// (Tsitsigkos and Mamoulis, SIGSPATIAL 2019) showed that partitioned
// plane-sweep with cheap per-partition duplicate avoidance scales
// near-linearly on multicore hardware, and that for resident inputs a
// forward scan over fine stripes beats every dynamic sweep structure;
// "Two-layer Space-oriented Partitioning for Non-point Data"
// (Tsitsigkos et al., 2023) refined the duplicate-elimination trick.
// The design here:
//
//   - The universe is cut into K stripes along x. Stripe boundaries
//     are sample quantiles of the records' x-centers (deduplicated so
//     they are strictly increasing), so clustered inputs (TIGER-like
//     cities) still split into balanced pieces. A small x-cell →
//     stripe table built with the boundaries turns "which stripe" into
//     one lookup and a short walk (a bisection where heavy skew crowds
//     many boundaries into one cell).
//   - K is chosen per query by a cost estimate (stripeCount): the
//     kernel's candidate comparisons fall as 1/K, replicated
//     placements and per-partition overhead rise with K, and the
//     sizes and mean extents of the window-qualified inputs say where
//     the two meet. Options.Partitions overrides it.
//   - Distribution itself is parallel: each input is split into
//     per-worker chunks, and each worker classifies and routes its
//     chunk into private per-(worker, stripe) fragments with no locks,
//     so the prefix ahead of the sweep scales with the worker count
//     instead of being an Amdahl floor. Fragments are pooled
//     across joins and reassembled per partition, in input order, by
//     the worker that sweeps it.
//   - Distribution is two-layer (following Tsitsigkos et al. 2023):
//     a record whose x-interval lies inside one stripe is tagged
//     stripe-local; only records crossing a boundary are replicated
//     into every stripe they overlap. A pair with a local member can
//     be generated in exactly one stripe and is emitted with no
//     per-pair test at all — the dominant class on realistic data —
//     while boundary×boundary pairs are reported only in the stripe
//     containing their reference point, the lower-x corner of the
//     pairwise intersection. Either way every result is emitted
//     exactly once with no cross-partition coordination.
//   - A worker pool of Options.Workers goroutines drains the K
//     partitions dynamically (K is far above the worker count on
//     anything but tiny inputs, so a dense stripe does not straggle
//     the join). Each partition is sorted by lower y — unless it
//     already is, which inputs that arrive sorted guarantee, since
//     distribution keeps input order — and then swept with no
//     structure at all: the two arrays are merged by lower y, and the
//     record that advances is compared with the run of the other
//     array that starts inside its y-interval (see kernel). The
//     paper's sweep structures bound the active set of inputs that
//     stream from disk; here both inputs are resident arrays, the
//     active set is a slice of one of them, and the stripes are what
//     keeps it short.
//   - The worst case of a forward scan is tall records: y-intervals
//     that overlap most of the other input make every run long, and
//     only the x-dimension — more stripes — separates candidates.
//     That is why K adapts to the mean y-extent instead of following
//     the worker count or the input size.
//   - Results are collected without locks: each worker owns a counter
//     shard and each partition owns a pooled output buffer. A pair is
//     reported by exactly one stripe, so a stripe's buffer is final
//     the moment the stripe is swept: with Options.Emit (or the
//     batched Options.EmitBatch) set, the calling goroutine hands each
//     buffer to the callback as soon as every earlier stripe's has
//     been — deterministic partition-then-sweep order, so callbacks
//     need not be thread-safe — while the workers sweep the stripes
//     after it, and deals the workers no more than Workers+1 stripes
//     ahead of the hand-over. The buffers on loan are therefore a
//     handful whatever K is, the first pairs leave after the first
//     stripe, and a slow consumer holds the sweep back instead of
//     letting output pile up.
//   - Both entry points take a context.Context: the dealing stops the
//     moment it is canceled and the kernel polls it every fixed amount
//     of comparison work within a partition, so a canceled query stops
//     promptly and returns the context's error.
//
// A window (Options.Window) acts in three places and no others: each
// input is narrowed to the records intersecting it, once, before
// anything else reads them; its region is what stripeCount sizes K
// for; and its left edge clips the reference point of boundary×boundary
// pairs. Measuring, sampling and distribution never see it.
//
// The entry points are Join (parallel) and Serial (the single-threaded
// sort-and-sweep over the same records with the paper's Striped-Sweep
// structure — in-memory SSSJ, the wall-clock baseline the benchmarks
// compare against).
package parallel

import (
	"fmt"
	"runtime"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/sweep"
)

// Options configures a parallel join. The zero value of every field
// except Universe has a sensible default.
type Options struct {
	// Universe bounds the data of both inputs; it anchors the stripe
	// boundaries, the stripe-count estimate and Serial's sweep
	// structure. Required.
	Universe geom.Rect

	// Workers is the number of sweep goroutines (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// Partitions is the stripe count K (minimum Workers). Zero lets
	// Join choose it from the sizes and mean extents of the inputs
	// (see stripeCount) — dozens to a hundred stripes on map-like
	// data, a thousand on tall records; Report.Partitions says what
	// was resolved. Serial ignores it.
	Partitions int

	// Window restricts the join to records intersecting this
	// rectangle on both sides, matching the serial algorithms'
	// Options.Window semantics. Both entry points narrow each input to
	// it in one pass, into pooled buffers, before doing anything else;
	// Join also sizes the stripe count for the window's region and
	// clips reference points to its left edge.
	Window *geom.Rect

	// Own, when set, keeps only the pairs whose reference point falls
	// in the interval (geom.Interval.OwnsPair) — a stripe shard's share
	// of the join, as core.Options.Own does for the serial algorithms.
	// Join folds it into the test its stripes already make: each
	// stripe's reference-point range is clamped to Own, and a record is
	// stripe-local only if it also lies inside Own, so pairs with such a
	// member stay test-free. Serial, which makes no reference-point
	// test, refuses it (errors.ErrUnsupported).
	Own *geom.Interval

	// SortedSamples, when non-empty, supplies pre-sorted x-center
	// samples (one per input, from SortedCenterSample) so the join
	// skips the serial quantile sample sort of its partitioning
	// prefix — the reuse path for stable catalog relations whose
	// samples are cached across queries. Ignored when Window is set:
	// a windowed join samples its narrowed inputs, which a
	// whole-relation cache cannot know.
	SortedSamples [][]geom.Coord

	// Emit receives every result pair in deterministic
	// partition-then-sweep order on the calling goroutine, a stripe's
	// pairs as soon as the stripes before it have been delivered; nil
	// counts pairs only, with no buffer at all.
	Emit func(geom.Pair)
	// EmitBatch is the batched alternative to Emit: it receives the
	// result pairs as slices (each partition's pooled output buffer in
	// Join, pairbuf.BatchSize batches in Serial), in the same
	// deterministic order on the calling goroutine. The slice is
	// recycled after the call returns, so callers must copy pairs they
	// retain. At most one of Emit and EmitBatch may be set.
	EmitBatch func([]geom.Pair)
}

// withDefaults validates and fills in defaults.
func (o Options) withDefaults() (Options, error) {
	if !o.Universe.Valid() {
		return o, fmt.Errorf("parallel: Options.Universe %v is invalid", o.Universe)
	}
	if o.Emit != nil && o.EmitBatch != nil {
		return o, fmt.Errorf("parallel: Options.Emit and Options.EmitBatch are mutually exclusive")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Partitions > 0 && o.Partitions < o.Workers {
		o.Partitions = o.Workers
	}
	return o, nil
}

// WorkerStats reports what one worker goroutine did.
type WorkerStats struct {
	// Partitions is the number of partitions this worker swept.
	Partitions int
	// Records is the number of (replicated) records it swept.
	Records int64
	// Pairs is its shard of the result count.
	Pairs int64
	// Busy is the time it spent sorting and sweeping (its share of the
	// parallel phase; compare against Report.SweepWall for utilization).
	Busy time.Duration
}

// Report is the outcome of a parallel (or Serial baseline) join,
// measured in wall-clock time on the host.
type Report struct {
	// Pairs is the number of distinct intersecting pairs.
	Pairs int64

	// Workers and Partitions echo the resolved options (Workers is 1
	// and Partitions 1 for Serial).
	Workers    int
	Partitions int

	// InputRecords counts both sides after narrowing to the window;
	// ReplicatedRecords counts them after stripe replication.
	// Replication is their ratio (>= 1; 0 for empty inputs).
	InputRecords      int64
	ReplicatedRecords int64
	Replication       float64
	// LocalRecords and BoundaryRecords split InputRecords by the
	// two-layer classification: local records lie inside a single
	// stripe (and are never replicated), boundary records cross at
	// least one stripe boundary. Serial counts every record local —
	// its single partition is the whole universe.
	LocalRecords    int64
	BoundaryRecords int64
	// NoTestPairs is how many of Pairs were emitted through the
	// two-layer fast path, with no reference-point ownership test (at
	// least one member of the pair was stripe-local). The remainder,
	// Pairs - NoTestPairs, are boundary×boundary pairs that paid the
	// test. Serial emits every pair untested.
	NoTestPairs int64

	// Wall is the end-to-end time: partitioning and the parallel
	// sweep. PartitionWall covers the whole prefix ahead of the sweep:
	// under a window, the one serial pass that narrows the inputs; the
	// boundary estimation (a serial quantile sort of at most a few
	// thousand sampled centers per input); and the chunked parallel
	// classify + distribute phase, which scales with Workers. SweepWall covers the parallel sort-and-sweep phase up to
	// the last stripe's hand-over — the callbacks run inside it, as
	// they do inside a serial sweep.
	Wall          time.Duration
	PartitionWall time.Duration
	SweepWall     time.Duration

	// Sweep aggregates the kernel statistics across partitions.
	// Comparisons is the number of x-overlap tests the kernel ran —
	// its unit of work, and what the stripe count trades against
	// replication. Pairs counts the tests that passed, before the
	// ownership test, so it exceeds Report.Pairs when replication made
	// a pair meet in several stripes. MaxLen and MaxBytes are 0 for
	// Join, which keeps no sweep structure (its active set is a slice
	// of the partition arrays); Serial reports its structure's peak.
	Sweep sweep.Stats

	// PerWorker holds one entry per worker goroutine.
	PerWorker []WorkerStats
}

// Speedup returns the ratio of a baseline wall time to this report's
// wall time (e.g. Serial's Wall over a parallel run's Wall).
func (r Report) Speedup(baseline Report) float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(baseline.Wall) / float64(r.Wall)
}

// LocalFraction returns the share of input records classified
// stripe-local (0 for empty inputs).
func (r Report) LocalFraction() float64 {
	if r.InputRecords <= 0 {
		return 0
	}
	return float64(r.LocalRecords) / float64(r.InputRecords)
}

// NoTestFraction returns the share of result pairs emitted without
// the reference-point test (0 for empty results).
func (r Report) NoTestFraction() float64 {
	if r.Pairs <= 0 {
		return 0
	}
	return float64(r.NoTestPairs) / float64(r.Pairs)
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("parallel: %d pairs, %d workers x %d partitions, wall %v (partition %v, sweep %v), repl %.3f, local %.1f%%, no-test %.1f%%",
		r.Pairs, r.Workers, r.Partitions, r.Wall, r.PartitionWall, r.SweepWall, r.Replication,
		100*r.LocalFraction(), 100*r.NoTestFraction())
}
