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
//     per-worker chunks, and each worker routes its chunk into private
//     per-(worker, stripe) fragments with no locks, so the prefix
//     ahead of the sweep scales with the worker count instead of being
//     an Amdahl floor. The same workers then reassemble each stripe's
//     fragments, in input order, split them by class (below) and sort
//     each class where need be.
//     The result — the partitioner, the class rule and every stripe's
//     sorted arrays, two classes of each input — is its layout, and
//     the sweep reads nothing else. A one-off join (Join) lays its stripes out in
//     fragments pooled across joins. A join that will be repeated over
//     the same two inputs takes its layout from a Slot instead, which
//     keeps it in plain memory under a key of everything it depends on
//     — a served relation version holds one, so a repeated join
//     partitions once per version pair and then runs only the kernel.
//   - Distribution is two-layer (following Tsitsigkos et al. 2023):
//     a record is placed in every stripe its x-interval overlaps, and
//     in each it is of class A when it starts inside the stripe's
//     owner range and of class B when it entered from the left of it.
//     The classes are decided while each stripe is assembled, against
//     ranges the layout computes once: the cut's OwnerRange of each
//     stripe, clamped to Options.Own when the join has one. The
//     Partitioner itself is only the cut, shared with shard plans.
//     A pair is reported by the stripe containing its reference point,
//     the lower-x corner of the pairwise intersection — the larger of
//     the two left edges — so a stripe owns its A×A, A×B and B×A pairs
//     and none of its B×B pairs. It sweeps exactly those three
//     mini-joins: every pair it compares and finds is its own, every
//     result is emitted exactly once, and there is no per-pair test
//     and no cross-partition coordination.
//   - A worker pool of Options.Workers goroutines drains the K
//     partitions dynamically (K is far above the worker count on
//     anything but tiny inputs, so a dense stripe does not straggle
//     the join). Each class was sorted by lower y in its layout —
//     unless it already was, which inputs that arrive sorted
//     guarantee, since distribution keeps input order — and each
//     mini-join is swept with no structure at all: two arrays are
//     merged by lower y, and the record that advances is compared with
//     the run of the other array that starts inside its y-interval
//     (see kernel). The
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
//     the moment the stripe is swept: with Options.EmitBatch set — the
//     engine's one output form; a per-pair consumer loops over the
//     batch — the calling goroutine hands each non-empty buffer to
//     the callback as soon as every earlier stripe's has
//     been — deterministic partition-then-sweep order, so the callback
//     need not be thread-safe — while the workers sweep the stripes
//     after it, and deals the workers no more than Workers+1 stripes
//     ahead of the hand-over. The buffers on loan are therefore a
//     handful whatever K is, the first pairs leave after the first
//     stripe, and a slow consumer holds the sweep back instead of
//     letting output pile up.
//   - Join takes a context.Context: the dealing stops the moment it
//     is canceled and the kernel polls it every fixed amount of
//     comparison work within a partition, so a canceled query stops
//     promptly and returns the context's error.
//
// A window (Options.Window) acts in three places and no others: each
// input is narrowed to the records intersecting it, once, before
// anything else reads them; its region is what stripeCount sizes K
// for; and its left edge clips each record's when the distribution
// decides the record's class in a stripe, as it clips the reference
// point of a pair. Measuring and sampling never see it, and stripe
// boundaries that Options.SortedSamples places are placed as they are
// without one.
//
// The entry points are Join and Slot.Join, which answer alike. One
// worker is their serial form — what a served PQ or SSSJ join runs —
// and the wall-clock baseline the benchmarks compare wider pools
// against.
package parallel

import (
	"fmt"
	"runtime"
	"time"

	"unijoin/internal/geom"
)

// Options configures a parallel join. The zero value of every field
// except Universe has a sensible default.
type Options struct {
	// Universe bounds the data of both inputs; it anchors the stripe
	// boundaries and the stripe-count estimate. Required.
	Universe geom.Rect

	// Workers is the number of sweep goroutines (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// Partitions is the stripe count K (minimum Workers). Zero lets
	// Join choose it from the sizes and mean extents of the inputs
	// (see stripeCount) — dozens to a hundred stripes on map-like
	// data, a thousand on tall records; Report.Partitions says what
	// was resolved.
	Partitions int

	// Window restricts the join to records intersecting this
	// rectangle on both sides, matching the serial algorithms'
	// Options.Window semantics. Join narrows each input to it in one
	// pass, into pooled buffers, before doing anything else, sizes the
	// stripe count for the window's region and clips reference points
	// — the left edges records are classed by — to its left edge.
	Window *geom.Rect

	// Own, when set, keeps only the pairs whose reference point falls
	// in the interval (geom.Interval.OwnsPair) — a stripe shard's share
	// of the join, as core.Options.Own does for the serial algorithms.
	// Join folds it into the classes: the layout clamps each stripe's
	// reference-point range (Partitioner.OwnerRange) to Own before it
	// classes records against it, so a shard's join sweeps its own pairs
	// only, with no test of its own. The cut itself does not depend on
	// Own.
	Own *geom.Interval

	// SortedSamples, when non-empty, supplies pre-sorted x-center
	// samples (one per input, from SortedCenterSample) that place the
	// stripe boundaries, windowed or not: the join skips the serial
	// quantile sample sort of its partitioning prefix — the reuse path
	// for stable catalog relations whose samples are cached across
	// queries. Without them a join samples the inputs it sweeps, a
	// windowed one its narrowed inputs. Under a window the samples
	// must describe the narrowed inputs, or be cuts meant to be pinned:
	// a whole relation's sample cuts K stripes across the whole
	// relation, and every one that misses the window is wasted.
	SortedSamples [][]geom.Coord

	// EmitBatch, when set, receives the result pairs as slices (each
	// partition's pooled output buffer, never empty) in deterministic
	// partition-then-sweep order on the calling goroutine, a stripe's
	// pairs as soon as the stripes before it have been delivered; nil
	// counts pairs only, with no buffer at all. The slice is recycled
	// after the call returns, so callers must copy pairs they retain.
	EmitBatch func([]geom.Pair)
}

// withDefaults validates and fills in defaults.
func (o Options) withDefaults() (Options, error) {
	if !o.Universe.Valid() {
		return o, fmt.Errorf("parallel: Options.Universe %v is invalid", o.Universe)
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
	// Busy is the time it spent sweeping (its share of the parallel
	// phase; compare against Report.SweepWall for utilization).
	Busy time.Duration
}

// Report is the outcome of a parallel join, measured in wall-clock
// time on the host.
type Report struct {
	// Pairs is the number of distinct intersecting pairs.
	Pairs int64

	// Workers and Partitions echo the resolved options.
	Workers    int
	Partitions int

	// InputRecords counts both sides after narrowing to the window;
	// ReplicatedRecords counts them after stripe replication.
	// Replication is their ratio (>= 1; 0 for empty inputs).
	InputRecords      int64
	ReplicatedRecords int64
	Replication       float64
	// LocalRecords and BoundaryRecords split InputRecords by where
	// the distribution put them: local records lie inside a single
	// stripe (and are never replicated), boundary records cross at
	// least one stripe boundary.
	LocalRecords    int64
	BoundaryRecords int64

	// Wall is the end-to-end time: partitioning and the parallel
	// sweep. PartitionWall covers the whole prefix ahead of the sweep,
	// the stripe layout: under a window, the one serial pass that
	// narrows the inputs; the boundary estimation (a serial quantile
	// sort of at most a few thousand sampled centers per input); and the
	// chunked parallel classify + distribute phase and the reassembly
	// and sort of each stripe after it, which scale with Workers — or,
	// for a join that reused a Slot's layout, only the lookup. SweepWall
	// covers the parallel sweep up to the last stripe's hand-over — the
	// callback runs inside it.
	Wall          time.Duration
	PartitionWall time.Duration
	SweepWall     time.Duration

	// Reused says the join swept a stripe layout an earlier join had
	// built — a Slot's — so its prefix was only the lookup, and
	// PartitionWall times that. Every counter above is the same as the
	// building join's.
	Reused bool

	// Comparisons is the number of x-overlap tests the kernel ran,
	// summed over the partitions — its unit of work, and what the stripe
	// count trades against replication. The kernel compares only pairs
	// its stripe owns, so Pairs of them pass.
	Comparisons int64

	// PerWorker holds one entry per worker goroutine.
	PerWorker []WorkerStats
}

// Speedup returns the ratio of a baseline wall time to this report's
// wall time (e.g. a one-worker Join's Wall over a wider pool's).
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

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("parallel: %d pairs, %d workers x %d partitions, wall %v (partition %v, sweep %v), repl %.3f, local %.1f%%, %d comparisons",
		r.Pairs, r.Workers, r.Partitions, r.Wall, r.PartitionWall, r.SweepWall, r.Replication,
		100*r.LocalFraction(), r.Comparisons)
}
