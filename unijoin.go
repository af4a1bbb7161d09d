// Package unijoin is a Go reproduction of "A Unified Approach for
// Indexed and Non-Indexed Spatial Joins" (Arge, Procopiuc, Ramaswamy,
// Suel, Vahrenhold, Vitter — EDBT 2000).
//
// The library computes the filter step of spatial overlay joins —
// all pairs of intersecting minimal bounding rectangles (MBRs) between
// two relations — with the four algorithms the paper studies:
//
//   - AlgSSSJ: sort both inputs by lower y and plane-sweep (the
//     Scalable Sweeping-based Spatial Join of Arge et al.).
//   - AlgPBSM: Patel and DeWitt's Partition-Based Spatial Merge join.
//   - AlgST: Brinkhoff, Kriegel and Seeger's synchronized R-tree
//     traversal over two indexes.
//   - AlgPQ: the paper's unified Priority-Queue-driven join, which
//     accepts any mix of indexed and non-indexed inputs, extends to
//     multi-way joins, and degenerates to SSSJ on non-indexed inputs.
//
// Everything runs over a simulated disk (Workspace) that counts
// sequential and random page accesses separately, so the library also
// reproduces the paper's experimental apparatus: per-machine simulated
// running times (Machine1..Machine3 from Table 1), the page-request
// accounting of Table 4, the memory profiles of Table 3, and the
// cost-model planner of Section 6.3 that picks between the index and
// sort paths.
//
// # Quick start
//
// Joins are built with the composable Query API and executed under a
// context.Context:
//
//	ws := unijoin.NewWorkspace()
//	roads, _ := ws.AddRelation(roadRecords)
//	hydro, _ := ws.AddRelation(hydroRecords)
//	_ = roads.BuildIndex()
//
//	res, _ := ws.Query(roads, hydro).Algorithm(unijoin.AlgPQ).Run(ctx)
//	fmt.Println(res.Count(), "intersecting pairs")
//	for p := range res.Pairs() {
//		fmt.Println(p.Left, p.Right)
//	}
//
// Builder methods chain (Algorithm, Window, Parallelism, Memory,
// Emit, ...):
//
//	res, err := ws.Query(roads, hydro).Window(r).Parallelism(8).Run(ctx)
//
// Canceling ctx (or exceeding its deadline) aborts the join mid-run
// with an error matching errors.Is(err, unijoin.ErrCanceled); other
// failure classes carry the ErrNeedsIndex and ErrNilRelation
// sentinels.
//
// Result pairs go to exactly one destination. By default Run buffers
// them for the Results.Pairs iterator; Emit streams them one at a
// time; EmitBatch streams them in pooled slices, amortizing the
// callback cost over thousands of pairs (the fast path for servers);
// CountOnly drops them, keeping only the accounting — the paper's own
// costing, which excludes output writing.
//
// # Parallel in-memory execution
//
// Alongside the simulated-I/O algorithms, AlgParallel runs the filter
// step on a multicore, in-memory engine (internal/parallel): the
// universe is split into sample-balanced stripes and both phases run
// on the worker pool. A windowed join narrows each input to the window
// once, up front; nothing after that tests it again. Distribution is
// chunked and two-layer — each worker routes its private chunk into the
// stripes each record overlaps, splitting every stripe's records into
// those that start inside it (class A) and those that entered it from
// the left (class B) — and the concurrent sweep compares only A×A, A×B
// and B×A pairs, all of which the stripe owns, so each pair is
// reported exactly once with no per-pair test. Its inputs are each relation's prepared run
// (records sorted when the relation is loaded, carried across
// appends), so a query neither reads the simulated disk nor sorts — and
// because both inputs are resident sorted arrays, the sweep inside a
// stripe builds no sweep structure: it merges the two arrays and
// scans forward, with the stripe count chosen per query so that those
// scans stay short. Its results are measured in wall-clock time rather
// than simulated page accesses — the benchmarking path for real
// hardware:
//
//	res, _ := ws.Query(roads, hydro).
//		Algorithm(unijoin.AlgParallel).
//		Parallelism(8).
//		Run(ctx)
//	fmt.Println(res.Count(), "pairs in", res.Parallel.Wall)
//
// # Serving queries
//
// A Catalog holds named, optionally indexed relations on one shared
// workspace with single-writer loads and concurrent reads — the
// resident state of a long-lived query process, whose PQ and SSSJ joins
// read each relation's resident sorted run instead of the simulated
// disk (the pair order differs by engine and is not part of the API;
// the pair set does not). Relation.WindowQuery answers the selection
// counterpart of a join (all records intersecting a rectangle) from
// the window's y-slab of the same run, on any workspace, indexed or not.
// cmd/sjserved serves both query classes over HTTP with streaming
// NDJSON responses; the client package is its Go client.
//
// Serving also scales across processes: Catalog.StripeBoundaries
// exports the engine's sample-balanced stripe cuts (the per-relation
// sample is cached across queries), sjserved -stripe lo:hi restricts
// a process to one stripe shard, and cmd/sjrouter scatter-gathers a
// shard fleet behind the identical HTTP API — returning exactly the
// single-process answer for every algorithm (see internal/shard).
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure plus the
// wall-clock results of the parallel engine.
package unijoin

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"unijoin/internal/core"
	"unijoin/internal/geom"
	"unijoin/internal/ingest"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
)

// Geometry and record types, re-exported from the geometry layer.
type (
	// Coord is the coordinate type (float32, as in the paper's 20-byte
	// records).
	Coord = geom.Coord
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-parallel rectangle (an MBR).
	Rect = geom.Rect
	// Record is one spatial object: MBR plus object ID.
	Record = geom.Record
	// Pair is one join result: the two intersecting objects' IDs.
	Pair = geom.Pair
	// ID identifies an object within a relation.
	ID = geom.ID
)

// NewRect builds a normalized rectangle from two corners.
func NewRect(x1, y1, x2, y2 Coord) Rect { return geom.NewRect(x1, y1, x2, y2) }

// ParseRect parses the "x1,y1,x2,y2" rectangle syntax shared by the
// command-line tools' -window and -region flags.
func ParseRect(s string) (Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return Rect{}, fmt.Errorf("unijoin: rectangle needs 4 comma-separated numbers, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Rect{}, fmt.Errorf("unijoin: bad rectangle component %q: %w", p, err)
		}
		v[i] = f
	}
	return NewRect(Coord(v[0]), Coord(v[1]), Coord(v[2]), Coord(v[3])), nil
}

// ReadRecordFile loads a real file of the paper's 20-byte MBR records
// (the format sjgen writes) into memory — the loader shared by the
// sjjoin and sjserved commands. A record with a NaN or infinite
// coordinate or an inverted rectangle fails the load — here as well as
// in AddRelation, so that a stripe shard, which loads only the records
// its stripe keeps, refuses the same files as a whole process.
func ReadRecordFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data)%geom.RecordSize != 0 {
		return nil, fmt.Errorf("unijoin: %s: %d bytes is not a whole number of %d-byte records",
			path, len(data), geom.RecordSize)
	}
	recs := make([]Record, 0, len(data)/geom.RecordSize)
	for off := 0; off < len(data); off += geom.RecordSize {
		rec := geom.DecodeRecord(data[off:])
		if !rec.Rect.Valid() || !rec.Rect.Finite() {
			return nil, fmt.Errorf("unijoin: %s: record %d (id %d) has an inverted rectangle or a NaN or infinite coordinate",
				path, off/geom.RecordSize, rec.ID)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Machine is a simulated hardware platform (CPU clock plus disk model).
type Machine = iosim.Machine

// The three platforms of Table 1.
var (
	Machine1 = iosim.Machine1 // SUN Sparc 20: slow CPU, fast disk
	Machine2 = iosim.Machine2 // SUN Ultra 10: fast CPU, slow-access disk
	Machine3 = iosim.Machine3 // DEC Alpha 500: fast CPU, fast disk
	Machines = iosim.Machines
)

// Algorithm selects a join strategy.
type Algorithm int

const (
	// AlgPQ is the paper's unified priority-queue join (works with any
	// mix of indexed and non-indexed relations).
	AlgPQ Algorithm = iota
	// AlgSSSJ is the sort-and-sweep join (non-indexed inputs).
	AlgSSSJ
	// AlgPBSM is the partition-based spatial merge join (non-indexed
	// inputs).
	AlgPBSM
	// AlgST is the synchronized R-tree traversal (both inputs must be
	// indexed).
	AlgST
	// AlgAuto plans with the Section 6.3 cost model: each side's index
	// is used only when the estimated fraction of leaves touched is
	// below the machine's random-vs-sequential break-even point.
	AlgAuto
	// AlgBFRJ is the breadth-first R-tree join of Huang, Jing and
	// Rundensteiner, the near-I/O-optimal index join the paper cites
	// alongside ST (both inputs must be indexed).
	AlgBFRJ
	// AlgParallel is the multicore in-memory engine: chunked parallel
	// two-layer distribution followed by a partition-parallel
	// forward-scan sweep over each stripe's sorted arrays (no sweep
	// structure) that compares only the pairs the stripe owns, so no
	// pair is tested for duplicates, measured in wall-clock time. Query.Parallelism sets the worker
	// count; the stripe count is chosen per query from the inputs'
	// sizes and mean extents unless Query.Partitions fixes it.
	AlgParallel
)

// ParseAlgorithm maps an algorithm name (case-insensitive: "PQ",
// "SSSJ", "PBSM", "ST", "auto", "BFRJ", "parallel") to its Algorithm
// value — the parser behind sjjoin's -alg flag and the query service's
// request decoding.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "PQ", "":
		return AlgPQ, nil
	case "SSSJ":
		return AlgSSSJ, nil
	case "PBSM":
		return AlgPBSM, nil
	case "ST":
		return AlgST, nil
	case "AUTO":
		return AlgAuto, nil
	case "BFRJ":
		return AlgBFRJ, nil
	case "PARALLEL":
		return AlgParallel, nil
	default:
		return 0, fmt.Errorf("unijoin: unknown algorithm %q", s)
	}
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgPQ:
		return "PQ"
	case AlgSSSJ:
		return "SSSJ"
	case AlgPBSM:
		return "PBSM"
	case AlgST:
		return "ST"
	case AlgAuto:
		return "auto"
	case AlgBFRJ:
		return "BFRJ"
	case AlgParallel:
		return "parallel"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Workspace is a simulated disk holding relations and indexes. All
// I/O performed by joins is counted on it; Counters and per-machine
// cost reports are derived from those counts.
//
// Queries may run on one workspace concurrently; the query service
// does this for every request. The paper's algorithms go through the
// simulated disk, which serializes page access internally (a query's
// temporary files are its own); the shared counters then accumulate
// across all concurrent queries, so per-query I/O deltas are only
// exact when queries run one at a time. AlgParallel stays off the
// disk: it joins each relation's prepared run — the pinned version's
// records in sweep order, sorted when the relation is loaded, carried
// across appends and shared read-only by every query on that epoch —
// and never reads a page. On a Catalog's workspace
// AlgPQ and AlgSSSJ join the same runs, at one worker: a long-lived
// process already holds the two sorted sources the unified join needs,
// so it does not re-extract them from the index per query. A workspace
// of one's own (NewWorkspace) runs them on the simulated disk, as the
// paper measures them.
//
// Loading relations and building indexes are not synchronized with
// running queries — use a Catalog, which publishes relations under a
// single-writer lock, when loads and queries overlap.
type Workspace struct {
	store    *iosim.Store
	universe Rect
	haveUniv bool
	// resident marks the workspace of a Catalog — serving state, whose
	// relations are joined many times. Its PQ and SSSJ joins read the
	// versions' prepared runs instead of the simulated disk (see
	// dispatch); set once, by NewCatalogOn.
	resident bool
}

// NewWorkspace creates a workspace with the paper's 8 KB pages.
func NewWorkspace() *Workspace {
	return &Workspace{store: iosim.NewStore(iosim.DefaultPageSize)}
}

// SetUniverse fixes the workspace universe (the bounding region used
// to size sweep strips, tiles, and Hilbert curves). If unset, it is
// the union of all relations' MBRs at join time.
func (w *Workspace) SetUniverse(u Rect) {
	w.universe = u
	w.haveUniv = true
}

// Store exposes the underlying simulated disk for advanced use
// (counter snapshots, custom experiments).
func (w *Workspace) Store() *iosim.Store { return w.store }

// Relation is one spatial relation in a workspace: an appendable
// record log with epoch-stamped immutable versions, and optionally an
// index over it — a packed R-tree over the records of the last bulk
// load plus a resident y-sorted run of the records appended since
// (see internal/ingest). Every query pins one version when it starts —
// Query.Run, WindowQuery, and StripeBoundaries each read the current
// version once, atomically — so a query never observes records
// appended after it began, no matter how long it streams. A relation's
// properties (record count, MBR, index and delta sizes, epoch) are read
// the same way: from one Pin.
type Relation struct {
	ws   *Workspace
	name string
	log  *ingest.Log
}

// AppendResult reports one Relation.Append: how many records were
// accepted, the epoch that makes them visible, the relation's new
// record count, and whether the append triggered a compaction.
type AppendResult = ingest.AppendResult

// AddRelation writes records to the workspace as a new non-indexed
// relation and builds its prepared run and x-center sample from them,
// so no query ever reads them back to build either. A record whose
// rectangle is not well formed (Rect.Valid: inverted or NaN) fails the
// whole call, as it fails Relation.Append.
func (w *Workspace) AddRelation(recs []Record) (*Relation, error) {
	return w.AddNamedRelation("", recs)
}

// AddNamedRelation is AddRelation with a label used in diagnostics.
func (w *Workspace) AddNamedRelation(name string, recs []Record) (*Relation, error) {
	l, err := ingest.New(ingest.Config{Store: w.store, Universe: w.universeFor}, recs)
	if err != nil {
		return nil, err
	}
	return &Relation{ws: w, name: name, log: l}, nil
}

// snapshot pins the relation's current version: the record prefix,
// tree, MBR, and sample a single query uses throughout its run.
func (r *Relation) snapshot() *ingest.Version { return r.log.Current() }

// Name returns the relation's label.
func (r *Relation) Name() string { return r.name }

// PinnedView is one relation's state pinned at a single epoch: every
// accessor answers from the same immutable version, so a multi-field
// summary (count + MBR + index stats) can never tear across a
// concurrent Append or Compact. Obtain one with Relation.Pin. A view
// stays valid indefinitely — versions are immutable — but goes stale
// as new epochs publish; pin fresh per request, not per process.
type PinnedView struct {
	name string
	v    *ingest.Version
}

// Pin reads the relation's current version exactly once and returns a
// consistent view of it. It is the only way to read a relation's
// properties: two Pin calls can straddle a concurrent Append and mix
// epochs, so take one per function and read everything from it.
func (r *Relation) Pin() PinnedView { return PinnedView{name: r.name, v: r.snapshot()} }

// Name returns the relation's label.
func (p PinnedView) Name() string { return p.name }

// Epoch returns the pinned epoch: it increases by one per published
// mutation (append, index build, compaction), and a query pinned at
// epoch e observes exactly the appends published at or before e.
func (p PinnedView) Epoch() int64 { return p.v.Epoch }

// Len returns the number of records at the pinned epoch.
func (p PinnedView) Len() int64 { return p.v.N }

// MBR returns the bounding rectangle at the pinned epoch (invalid for
// an empty relation).
func (p PinnedView) MBR() Rect { return p.v.MBR }

// Indexed reports whether the relation is declared indexed: whether
// the pinned version carries the R-tree ST and BFRJ read.
func (p PinnedView) Indexed() bool { return p.v.Tree != nil }

// DataBytes returns the record-stream size at the pinned epoch.
func (p PinnedView) DataBytes() int64 { return p.v.File.Size() }

// StripeBytes returns the size of the stripe layout the pinned epoch
// holds for the in-memory engine: the replicated, partitioned records
// of its latest unwindowed join as the left input, both sides (0 until
// such a join has run on this epoch).
func (p PinnedView) StripeBytes() int64 { return p.v.Stripes().Bytes() }

// IndexBytes returns the packed R-tree's on-disk size at the pinned
// epoch (0 if not built). The tree covers the records of the last bulk
// load or compaction; the DeltaRecords appended since live in memory.
func (p PinnedView) IndexBytes() int64 {
	if t := p.v.Tree; t != nil {
		return t.SizeBytes()
	}
	return 0
}

// IndexNodes returns the packed R-tree's page count at the pinned
// epoch (0 if not built) — the "lower bound" of Table 4. Like
// IndexBytes it describes the packed base only.
func (p PinnedView) IndexNodes() int {
	if t := p.v.Tree; t != nil {
		return t.NumNodes()
	}
	return 0
}

// DeltaRecords returns how many records had been appended since the
// last packed index build at the pinned epoch (0 right after load,
// BuildIndex, or compaction) — for an indexed relation the length of
// the delta run queries read beside the tree.
func (p PinnedView) DeltaRecords() int64 { return p.v.Delta() }

// Compactions returns how many delta compactions the relation has
// run (automatic and explicit).
func (r *Relation) Compactions() int64 { return r.log.Compactions() }

// Append adds records to the relation and publishes them atomically
// as a new epoch: queries already running never observe them, queries
// started after Append returns observe all of them. The record log
// grows in place; an existing R-tree is left as it is and the batch is
// merged into the relation's delta run, which every index consumer
// reads beside the tree — PQ as one more sorted source, ST and BFRJ
// through a PQ pass over the remainder —
// so indexed algorithms see the records without a rebuild and an
// append allocates nothing on the simulated disk but the log's own
// pages. The x-center sample and prepared run are maintained by merge
// as well. All records are accepted or none. When the
// accumulated delta crosses the compaction threshold, the packed index
// is rebuilt over the whole log before Append returns.
func (r *Relation) Append(recs []Record) (AppendResult, error) {
	if r == nil || r.log == nil {
		return AppendResult{}, fmt.Errorf("%w: append", ErrNilRelation)
	}
	return r.log.Append(recs)
}

// Compact folds the appended delta into the base segment now: an
// indexed relation gets a fresh packed bulk load over all records, an
// unindexed one resets the delta accounting. It reports whether there
// was a delta to fold. Queries pinned to earlier versions are
// unaffected.
func (r *Relation) Compact() (bool, error) {
	if r == nil || r.log == nil {
		return false, fmt.Errorf("%w: compact", ErrNilRelation)
	}
	return r.log.Compact()
}

// BuildIndex bulk-loads a packed R-tree over the relation with the
// paper's configuration (Hilbert order, fanout 400, 75% fill with 20%
// area slack). The sorting and node writes are charged to the
// workspace's counters, as index construction is in Section 6.3's
// discussion.
func (r *Relation) BuildIndex() error {
	return r.BuildIndexOptions(rtree.DefaultBuildOptions())
}

// BuildIndexOptions bulk-loads with explicit options (used by the
// packing-policy ablation). The options also govern later compaction
// rebuilds of this relation.
func (r *Relation) BuildIndexOptions(opts rtree.BuildOptions) error {
	return r.log.BuildIndex(opts)
}

// universeFor resolves the workspace universe, defaulting to the
// given fallback rectangle.
func (w *Workspace) universeFor(fallback Rect) Rect {
	if w.haveUniv {
		return w.universe
	}
	if fallback.Valid() {
		return fallback
	}
	return NewRect(0, 0, 1, 1)
}

// MultiwayJoin computes the k-way intersection join of the relations
// (k >= 2) with the pipelined PQ strategy of Section 4, under ctx:
// every pipeline stage polls the context, so canceling it aborts the
// whole multiway join with ErrCanceled. emit receives the IDs of each
// result tuple in input order.
func (w *Workspace) MultiwayJoin(ctx context.Context, rels []*Relation, emit func(ids []ID)) (core.MultiwayResult, error) {
	if len(rels) < 2 {
		return core.MultiwayResult{}, fmt.Errorf("unijoin: multiway join needs >= 2 relations")
	}
	for _, r := range rels {
		if r == nil {
			return core.MultiwayResult{}, fmt.Errorf("%w: multiway join", ErrNilRelation)
		}
	}
	// Pin every relation's version once, before any work: the k-way
	// join then sees one consistent epoch per input for its whole run.
	versions := make([]*ingest.Version, len(rels))
	for i, r := range rels {
		versions[i] = r.snapshot()
	}
	mbr := geom.EmptyRect()
	inputs := make([]core.Input, len(versions))
	for i, v := range versions {
		mbr = mbr.Union(v.MBR)
		inputs[i] = versionInput(v)
	}
	return core.MultiwayPQ(ctx, w.coreOptions(mbr, joinOptions{}), inputs, emit)
}

// Plan runs only the Section 6.3 cost model, without executing the
// join; histogram construction polls ctx.
func (w *Workspace) Plan(ctx context.Context, m Machine, a, b *Relation) (core.Decision, error) {
	if a == nil || b == nil {
		return core.Decision{}, fmt.Errorf("%w: plan needs two relations", ErrNilRelation)
	}
	va, vb := a.snapshot(), b.snapshot()
	p := core.Planner{Machine: m}
	return p.Plan(ctx, w.coreOptions(va.MBR.Union(vb.MBR), joinOptions{}), versionInput(va), versionInput(vb))
}

// versionInput adapts a pinned relation version to the core layer's
// input shape: the log, the packed tree over its base and the run of
// records appended since.
func versionInput(v *ingest.Version) core.Input {
	return core.Input{File: v.File, Tree: v.Tree, Delta: v.DeltaRun()}
}
