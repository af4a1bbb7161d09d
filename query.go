package unijoin

import (
	"context"
	"fmt"
	"time"

	"unijoin/internal/core"
	"unijoin/internal/geom"
	"unijoin/internal/ingest"
	"unijoin/internal/parallel"
	"unijoin/internal/sweep"
)

// Query is a composable spatial join: a pair of relations plus the
// knobs that shape the run. Build one with Workspace.Query, configure
// it with chained builder methods, and execute it with Run:
//
//	res, err := ws.Query(roads, hydro).
//		Algorithm(unijoin.AlgPQ).
//		Window(r).
//		Run(ctx)
//
// A Query value is single-shot and not safe for concurrent use; build
// a fresh one per run. The zero algorithm is AlgPQ, the paper's
// unified join.
type Query struct {
	ws        *Workspace
	a, b      *Relation
	alg       Algorithm
	opts      joinOptions
	countOnly bool
}

// joinOptions is the knob block behind a Query, one field per builder
// method; the zero value means defaults.
type joinOptions struct {
	MemoryBytes        int
	BufferPoolBytes    int
	Machine            Machine
	Window             *Rect
	Parallelism        int
	ParallelPartitions int
	Emit               func(Pair)
	EmitBatch          func([]Pair)
	own                *geom.Interval
}

// Query starts a join of a and b on the workspace, to be configured
// with the chainable builder methods.
func (w *Workspace) Query(a, b *Relation) *Query {
	return &Query{ws: w, a: a, b: b, alg: AlgPQ}
}

// Algorithm selects the join strategy (default AlgPQ).
func (q *Query) Algorithm(alg Algorithm) *Query { q.alg = alg; return q }

// Window restricts the join to pairs of records that both intersect r.
func (q *Query) Window(r Rect) *Query { q.opts.Window = &r; return q }

// Owned keeps only the pairs whose reference point — the lower-x
// corner of the two rectangles' intersection, the larger of their left
// edges — lies in [lo, hi): the share of the join a stripe shard owning
// that x-interval reports (see internal/shard). Under Window the point
// is clipped to the window's left edge — the lower-x corner of the
// intersection with the window as well — so it always lies inside the
// window's x-extent, and an interval that misses that extent owns
// nothing. Either way, shares over intervals that tile the line are
// disjoint and their union is the whole join, for every algorithm; the
// test runs inside the join kernels, so Count, the Emit callbacks and
// Results.Pairs see owned pairs only and CountOnly stays the counting
// fast path. It is the serving layer's hook for sjserved -stripe.
func (q *Query) Owned(lo, hi Coord) *Query {
	q.opts.own = &geom.Interval{Lo: lo, Hi: hi}
	return q
}

// Parallelism sets the worker count for AlgParallel (default
// GOMAXPROCS). Other algorithms ignore it: they are one-core queries
// wherever they run.
func (q *Query) Parallelism(n int) *Query { q.opts.Parallelism = n; return q }

// Partitions overrides the in-memory engine's stripe count. Left unset,
// the engine chooses it per query from the window-qualified inputs'
// sizes and mean extents: enough stripes to keep the forward scans
// short, few enough to keep replication low (Results.Parallel.Partitions
// reports the choice).
func (q *Query) Partitions(n int) *Query { q.opts.ParallelPartitions = n; return q }

// Memory sets the simulated internal-memory budget in bytes.
func (q *Query) Memory(bytes int) *Query { q.opts.MemoryBytes = bytes; return q }

// BufferPool sets ST's LRU buffer pool size in bytes.
func (q *Query) BufferPool(bytes int) *Query { q.opts.BufferPoolBytes = bytes; return q }

// Machine selects the simulated platform AlgAuto's cost model plans
// for (default Machine3).
func (q *Query) Machine(m Machine) *Query { q.opts.Machine = m; return q }

// Emit streams each result pair to fn while the join runs: the serial
// algorithms call it as each pair is found, the in-memory engine
// (AlgParallel, and PQ and SSSJ on a Catalog's workspace) as soon as the
// stripe that found it and every stripe before it have been swept. A
// query with an Emit callback does not buffer pairs, so Results.Pairs
// yields nothing. fn is always called on the caller's goroutine, in an
// order that is deterministic for the engine that ran — sweep order, or
// stripe then sweep order — so the callback need not be thread-safe.
func (q *Query) Emit(fn func(Pair)) *Query { q.opts.Emit = fn; return q }

// EmitBatch streams result pairs to fn in pooled batches — the fast
// path that amortizes the per-pair callback indirection over
// thousands of pairs. The slice is reused after fn returns; copy
// pairs that must outlive the call. Mutually exclusive with Emit.
func (q *Query) EmitBatch(fn func([]Pair)) *Query { q.opts.EmitBatch = fn; return q }

// CountOnly disables the default buffering of result pairs for
// Results.Pairs, keeping only the accounting — the paper's own
// methodology (its cost model excludes output writing) and the
// cheapest mode: the sweep kernel counts matches with no per-pair
// callback at all. It is a no-op when an Emit or EmitBatch callback
// is set (those queries already stream instead of buffering).
func (q *Query) CountOnly() *Query { q.countOnly = true; return q }

// Run executes the query under ctx and returns its Results. The
// context is honored through every phase — sorting, partitioning,
// index traversal, and the sweep loops poll it — so canceling ctx (or
// hitting its deadline) aborts the join and returns an error matching
// errors.Is(err, ErrCanceled).
//
// Result pairs go to exactly one place: the Emit callback, the
// EmitBatch callback, nowhere (CountOnly), or — the default when none
// of those was configured — an internal buffer exposed by
// Results.Pairs.
func (q *Query) Run(ctx context.Context) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.a == nil || q.b == nil {
		return nil, fmt.Errorf("%w: Query needs two relations", ErrNilRelation)
	}
	if q.opts.Emit != nil && q.opts.EmitBatch != nil {
		return nil, fmt.Errorf("unijoin: Emit and EmitBatch are mutually exclusive")
	}

	res := &Results{}
	opts := q.opts
	if !q.countOnly && opts.Emit == nil && opts.EmitBatch == nil {
		// Default: collect pairs for Results.Pairs. Collection rides
		// the batch path, so the per-pair cost is one append.
		res.collected = true
		opts.EmitBatch = func(batch []Pair) { res.pairs = append(res.pairs, batch...) }
	}

	// Pin both relations' versions here, before any work: the join
	// runs entirely against these two immutable snapshots, so records
	// appended while it streams are never observed (they land in later
	// epochs), and records appended before Run are all observed.
	res.Left, res.Right = q.a.Pin(), q.b.Pin()
	jr, err := q.ws.dispatch(ctx, q.alg, res.Left.v, res.Right.v, &opts, res)
	if err != nil {
		return nil, err
	}
	res.JoinResult = jr
	return res, nil
}

// dispatch runs one algorithm with fully-resolved options against two
// pinned relation versions, filling engine-specific extras (the
// parallel report) into res.
//
// On a resident workspace the unified join and its non-indexed form do
// not go to the simulated disk to rebuild what the versions already
// hold: PQ needs two y-sorted sources, index traversal is one way to
// get one, and a served relation's prepared run is another that is
// already there. They run as the in-memory engine at one worker — the
// same two sorted sources under the kernel resident arrays want — and
// stay one-core queries under their own names. The paper's comparison
// baselines and its simulated-disk planner (ST, BFRJ, PBSM, auto) run
// on the simulator everywhere.
func (w *Workspace) dispatch(ctx context.Context, alg Algorithm, a, b *ingest.Version, opts *joinOptions, res *Results) (JoinResult, error) {
	if w.resident && (alg == AlgPQ || alg == AlgSSSJ) {
		r, err := w.runParallel(ctx, alg.String(), 1, a, b, opts, res)
		return JoinResult{Result: r}, err
	}
	o := w.coreOptions(a.MBR.Union(b.MBR), *opts)
	switch alg {
	case AlgSSSJ:
		r, err := core.SSSJ(ctx, o, a.File, b.File)
		return JoinResult{Result: r}, err
	case AlgPBSM:
		r, err := core.PBSM(ctx, o, a.File, b.File)
		return JoinResult{Result: r}, err
	case AlgST:
		if a.Tree == nil || b.Tree == nil {
			return JoinResult{}, fmt.Errorf("%w: ST requires both relations indexed", ErrNeedsIndex)
		}
		r, err := core.Indexed(ctx, o, core.ST, versionInput(a), versionInput(b))
		return JoinResult{Result: r}, err
	case AlgPQ:
		r, err := core.PQ(ctx, o, versionInput(a), versionInput(b))
		return JoinResult{Result: r}, err
	case AlgBFRJ:
		if a.Tree == nil || b.Tree == nil {
			return JoinResult{}, fmt.Errorf("%w: BFRJ requires both relations indexed", ErrNeedsIndex)
		}
		r, err := core.Indexed(ctx, o, core.BFRJ, versionInput(a), versionInput(b))
		return JoinResult{Result: r}, err
	case AlgAuto:
		m := Machine3
		if opts.Machine.Name != "" {
			m = opts.Machine
		}
		p := core.Planner{Machine: m}
		d, r, err := p.Join(ctx, o, versionInput(a), versionInput(b))
		return JoinResult{Result: r, Decision: &d}, err
	case AlgParallel:
		r, err := w.runParallel(ctx, alg.String(), opts.Parallelism, a, b, opts, res)
		return JoinResult{Result: r}, err
	default:
		return JoinResult{}, fmt.Errorf("unijoin: unknown algorithm %v", alg)
	}
}

// runParallel runs the in-memory engine with the given worker count
// (0: GOMAXPROCS) on the two pinned versions' prepared runs — their
// records already in sweep order, built at load and carried across
// appends — and reports the join under name. It performs no simulated
// I/O and no sort; the one query per appended epoch that finds a run
// unmerged pays for the merge and reports it as res.Prepared and
// Result.PrepareWall. An unwindowed join partitions once per version
// pair: the first join of the two pinned versions (under one universe,
// Owned interval and stripe count) leaves its stripe layout in the
// left version's slot, and every join after it sweeps that layout
// (Results.Parallel.Reused). A windowed join hands
// the engine only a slab of each run (engineInput), so what it
// measures, samples and distributes is proportional to the window, not
// to the relations, and it partitions for itself.
func (w *Workspace) runParallel(ctx context.Context, name string, workers int, a, b *ingest.Version, opts *joinOptions, res *Results) (core.Result, error) {
	po := parallel.Options{Universe: w.universeFor(a.MBR.Union(b.MBR))}
	po.Workers = workers
	po.Partitions = opts.ParallelPartitions
	po.Window = opts.Window
	po.Own = opts.own
	po.EmitBatch = opts.EmitBatch
	if emit := opts.Emit; emit != nil {
		// The engine hands over whole stripes only; a per-pair
		// callback sees them pair by pair, on this goroutine and in
		// stripe-then-sweep order.
		po.EmitBatch = func(batch []Pair) {
			for _, p := range batch {
				emit(p)
			}
		}
	}
	start := time.Now()
	var recs [2][]Record
	for i, v := range [2]*ingest.Version{a, b} {
		recs[i], res.Prepared[i] = engineInput(v, po.Window)
	}
	var prepareWall time.Duration
	if res.Prepared != [2]ingest.Build{} {
		prepareWall = time.Since(start)
	}
	var rep parallel.Report
	var err error
	if po.Window == nil {
		// Hand the engine each version's x-center sample so the
		// partitioning prefix skips its serial quantile sample sort.
		// Windowed joins sample only the qualifying records, which the
		// whole-relation sample cannot provide.
		po.SortedSamples = [][]geom.Coord{a.Sample(), b.Sample()}
		rep, err = a.Stripes().Join(ctx, b.Serial(), recs[0], recs[1], po)
	} else {
		rep, err = parallel.Join(ctx, recs[0], recs[1], po)
	}
	if err != nil {
		return core.Result{}, core.WrapCanceled(err)
	}
	res.Parallel = &rep
	return core.Result{
		Algorithm:     name,
		Pairs:         rep.Pairs,
		Sweep:         sweep.Stats{Pairs: rep.Pairs, Comparisons: rep.Comparisons},
		HostCPU:       rep.Wall,
		PrepareWall:   prepareWall,
		PartitionWall: rep.PartitionWall,
		SweepWall:     rep.SweepWall,
	}, nil
}

// engineInput returns what the in-memory engine is handed for one side
// of a join: the version's prepared run, cut under a window to the slab
// of it that can reach the window in y. The engine's one narrowing pass
// does the rest, so windowed and unwindowed joins are one path.
func engineInput(v *ingest.Version, window *Rect) ([]Record, ingest.Build) {
	run, build := v.Prepared()
	if window == nil {
		return run.Recs, build
	}
	return run.Slab(*window), build
}

// coreOptions maps a query's knobs onto the core layer's, for inputs
// bounded by mbr.
func (w *Workspace) coreOptions(mbr Rect, opts joinOptions) core.Options {
	return core.Options{
		Store:           w.store,
		Universe:        w.universeFor(mbr),
		MemoryBytes:     opts.MemoryBytes,
		BufferPoolBytes: opts.BufferPoolBytes,
		Window:          opts.Window,
		Own:             opts.own,
		Emit:            opts.Emit,
		EmitBatch:       opts.EmitBatch,
	}
}
