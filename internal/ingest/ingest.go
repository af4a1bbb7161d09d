// Package ingest makes relations mutable without making queries
// unstable: each relation's records live in one append-only log on
// the simulated disk, and every mutation publishes a new immutable
// epoch-stamped Version — a pinned prefix view of the log
// (iosim.File.Snapshot), the packed R-tree over the records of the
// last bulk load, the delta run holding the records appended since,
// the bounding rectangle, the maintained x-center sample, and the
// prepared run (all records decoded and ordered by lower y, which the
// in-memory engine joins without touching the simulated disk). Readers
// load the current Version once, atomically, and keep a consistent
// view no matter how many appends land while they stream; writers
// serialize on the log's mutex and never modify anything a published
// Version references (appends write bytes past every pinned size and
// merge the delta and prepared runs into fresh slices; a tree is never
// written after its bulk load).
//
// A live indexed relation is therefore the paper's two input forms at
// once: an index over the base and a sorted run over the tail. Nothing
// forces the tail into the tree — the unified PQ join merges the
// tree's sorted scanner with the run (core.Input.Delta), and the
// algorithms that need both sides fully indexed join the two bases and
// leave the remainder to PQ (core.Indexed). A window query reads
// neither form: it cuts the prepared run below, which holds base and
// delta in one order, to the window's y-slab. An append to an indexed
// relation costs one memmove of the delta, bounded by the compaction
// threshold, and allocates no store pages beyond the log's own growth.
// The run is plain Go memory shared read-only between a version and
// the merge that builds its successor's, so a superseded run needs no
// release: it is collected with the last version that references it.
//
// The prepared run is built once per epoch, never once per query and
// never eagerly per append. The first Prepared call on a relation
// reads the log and sorts the base; from then on the run is warm and
// every mutation carries it: an append hands the successor the shared
// base run and the delta run merged with the new batch (work
// proportional to the delta), the first query that pins the new epoch
// merges the two once for everybody, and a compaction promotes the
// merged run to the next base. An unindexed relation keeps a delta run
// only once warm; a cold one carries nothing. A run dies with the last
// reference to its version.
//
// The index follows the paper's lifecycle: a relation's tree is born
// packed (Hilbert bulk load, Section 3.3) and stays packed. A
// threshold-triggered compaction — delta at least CompactMin records
// and CompactFrac of the base — bulk-loads a fresh packed tree over
// the whole log and republishes with an empty delta. The superseded
// tree's pages stay allocated for the benefit of still-pinned readers
// (the Catalog.Drop policy); that is the one thing the store keeps per
// compaction, and the LSM-style threshold amortizes it.
package ingest

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/parallel"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// DefaultCompactMin is the minimum delta size that triggers an
// automatic compaction: below it a rebuild costs more than the
// queries it would speed up.
const DefaultCompactMin = 4096

// DefaultCompactFrac is the delta-to-base ratio that triggers an
// automatic compaction once the minimum is met; 0.25 gives the
// LSM-style amortization where each record is rebuilt O(log n) times
// over the life of the log.
const DefaultCompactFrac = 0.25

// Config configures a Log. Store and Universe are required.
type Config struct {
	// Store is the simulated disk the log and its index live on.
	Store *iosim.Store
	// Universe resolves the bulk-load universe for a given relation
	// MBR (a Workspace's universeFor); compaction rebuilds use it.
	Universe func(mbr geom.Rect) geom.Rect
	// CompactMin is the minimum delta (records since the last packed
	// build) before an append triggers compaction. 0 means
	// DefaultCompactMin.
	CompactMin int
	// CompactFrac is the delta/base fraction that must also be
	// reached. 0 means DefaultCompactFrac.
	CompactFrac float64
	// DisableAutoCompact turns the threshold trigger off; Compact can
	// still be called explicitly. Tests use this to hold a delta open.
	DisableAutoCompact bool
}

// Version is one immutable published state of a relation: everything
// a query needs, pinned at an epoch. Versions are safe for concurrent
// use and stay valid forever — later appends and compactions only
// publish successors. The two lazily built members, the x-center
// sample and the prepared run, are caches of that immutable state:
// built by the first reader that needs them, carried to the successor
// once warm, and dropped with the version.
type Version struct {
	// Epoch increases by one per published mutation (append, index
	// build, compaction). A query pins one Version at start and
	// therefore observes exactly the appends with Epoch <= this one.
	Epoch int64
	// File is the record log pinned at this version's length: reads
	// never observe later appends.
	File *iosim.File
	// Tree is the packed index over the first BaseN records of File,
	// immutable since its bulk load and shared by every version up to
	// the next compaction; nil when the relation is unindexed. The
	// records it does not cover are DeltaRun.
	Tree *rtree.Tree
	// N is the number of records this version sees.
	N int64
	// BaseN is how many of them the last packed bulk load (or, for an
	// unindexed relation, the last compaction) covered; N - BaseN is
	// the delta.
	BaseN int64
	// MBR bounds this version's records (invalid when N is 0).
	MBR geom.Rect

	// sampleMu guards the lazily-computed sorted x-center sample.
	// Appends carry a warm sample forward by merge (MergeSamples), so
	// a relation that has been sampled once stays sampled across
	// appends without rescanning; compaction deliberately drops it so
	// the next reader resamples the full log.
	sampleMu sync.Mutex
	sample   []geom.Coord
	sampled  bool

	// delta is the tail of File — its last len(delta) records — as a
	// resident run ordered by geom.ByLowerY, and deltaMaxH bounds the
	// y-extent of its records. Both are fixed at publication. An
	// indexed version always carries the records its Tree does not
	// cover (len(delta) == N - BaseN); an unindexed one carries a
	// delta only once its prepared run is warm.
	delta     []geom.Record
	deltaMaxH float64

	// runMu guards base and run, the lazily built halves of the
	// prepared run (see Prepared): base holds the records ahead of
	// delta in the same order, run all of them, and baseMaxH bounds the
	// y-extent of base's records as deltaMaxH does delta's. A warm
	// predecessor hands base over at publication; a cold version builds
	// it from File. No slice is ever written once set: successors and
	// concurrent queries share them.
	runMu    sync.Mutex
	base     []geom.Record
	baseMaxH float64
	run      []geom.Record
}

// Delta returns the records appended since the last packed build.
func (v *Version) Delta() int64 { return v.N - v.BaseN }

// DeltaRun returns the records Tree does not cover — the last
// N - BaseN records of File — as a resident run ordered by
// geom.ByLowerY. It is empty for an unindexed version (whose File is
// the only input form) and right after a bulk load or compaction. The
// run is shared: it must not be modified.
func (v *Version) DeltaRun() geom.Run {
	if v.Tree == nil {
		return geom.Run{}
	}
	return geom.Run{Recs: v.delta, MaxH: v.deltaMaxH}
}

// Sample returns the version's sorted x-center sample, calling
// compute to produce it on first use. compute typically scans
// v.File; it runs under the version's sample lock, so concurrent
// callers compute at most once.
func (v *Version) Sample(compute func() ([]geom.Coord, error)) ([]geom.Coord, error) {
	v.sampleMu.Lock()
	defer v.sampleMu.Unlock()
	if !v.sampled {
		s, err := compute()
		if err != nil {
			return nil, err
		}
		v.sample = s
		v.sampled = true
	}
	return v.sample, nil
}

// warmSample returns the sample and whether it has been computed,
// without computing it.
func (v *Version) warmSample() ([]geom.Coord, bool) {
	v.sampleMu.Lock()
	defer v.sampleMu.Unlock()
	return v.sample, v.sampled
}

// Build says what a Prepared call had to do for its result.
type Build string

const (
	// BuildNone: the run was already there.
	BuildNone Build = ""
	// BuildMerge: one linear merge of the carried base and delta runs.
	BuildMerge Build = "merge"
	// BuildFull: the log was read, decoded and sorted.
	BuildFull Build = "full"
)

// Prepared returns the version's records ordered by geom.ByLowerY (a
// total order: lower y, then ID) with the bound on their y-extents that
// lets a window cut the run to a slab (geom.Run.Slab) — the input form
// of the in-memory engine — and what this call did to produce them.
// The run is built at most once per version, under the version's lock,
// and then shared by every caller: it must not be modified. Only a cold
// build touches the simulated disk: it reads the log, sorts the part
// ahead of the delta run into the base, bounds it, and merges the two.
// It also takes the x-center sample from the records while they are
// still in file order, so the sample does not depend on whether a join
// or a stripe planner asked first. The merged run's bound is the larger
// of the two halves' — exact, with no pass over the records.
func (v *Version) Prepared() (geom.Run, Build, error) {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	if v.run != nil {
		return v.boundedRun(), BuildNone, nil
	}
	build := BuildMerge
	if v.base == nil {
		recs, err := stream.ReadAll(v.File, stream.Records)
		if err != nil {
			return geom.Run{}, BuildNone, err
		}
		if _, err := v.Sample(func() ([]geom.Coord, error) {
			return parallel.SortedCenterSample(recs), nil
		}); err != nil {
			return geom.Run{}, BuildNone, err
		}
		recs = recs[:len(recs)-len(v.delta)]
		sortByLowerY(recs)
		for _, r := range recs {
			v.baseMaxH = max(v.baseMaxH, geom.YExtent(r.Rect))
		}
		v.base, build = recs, BuildFull
	}
	v.run = v.base
	if len(v.delta) > 0 {
		v.run = mergeRuns(v.base, v.delta)
	}
	return v.boundedRun(), build, nil
}

// boundedRun is the built prepared run under the larger of its halves'
// bounds; the caller holds runMu.
func (v *Version) boundedRun() geom.Run {
	return geom.Run{Recs: v.run, MaxH: max(v.baseMaxH, v.deltaMaxH)}
}

// warmBase returns the base half of v's prepared run — empty while v is
// cold.
func (v *Version) warmBase() geom.Run {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	return geom.Run{Recs: v.base, MaxH: v.baseMaxH}
}

// mergeRuns merges two runs ordered by geom.ByLowerY into a fresh one.
func mergeRuns(a, b []geom.Record) []geom.Record {
	out := make([]geom.Record, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if geom.ByLowerY(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// sortByLowerY puts recs in geom.ByLowerY order: a radix sort on the
// key (lower y, ID), one byte per pass from the least significant,
// skipping the bytes every key shares. It is the sort a cold prepared
// run pays, several times cheaper than comparing records.
func sortByLowerY(recs []geom.Record) {
	if len(recs) < 2 {
		return
	}
	src, dst := recs, make([]geom.Record, len(recs))
	srcK, dstK := make([]uint64, len(recs)), make([]uint64, len(recs))
	for i, r := range recs {
		srcK[i] = lowerYKey(r)
	}
	for shift := 0; shift < 64; shift += 8 {
		var start [256]int
		for _, k := range srcK {
			start[byte(k>>shift)]++
		}
		if start[byte(srcK[0]>>shift)] == len(srcK) {
			continue
		}
		sum := 0
		for d, n := range start {
			start[d], sum = sum, sum+n
		}
		for i, k := range srcK {
			d := byte(k >> shift)
			dst[start[d]], dstK[start[d]] = src[i], k
			start[d]++
		}
		src, dst, srcK, dstK = dst, src, dstK, srcK
	}
	copy(recs, src)
}

// lowerYKey is r's geom.ByLowerY rank as an unsigned key: the bits of
// lower y made order-preserving (−0 kept equal to +0), then the ID.
func lowerYKey(r geom.Record) uint64 {
	b := math.Float32bits(float32(r.Rect.YLo))
	switch {
	case b == 1<<31: // −0
	case b&(1<<31) != 0:
		b = ^b
	default:
		b |= 1 << 31
	}
	return uint64(b)<<32 | uint64(r.ID)
}

// AppendResult reports one Append.
type AppendResult struct {
	// Appended is the number of records accepted (all or none).
	Appended int
	// Epoch is the epoch queries must pin to observe them — the
	// post-compaction epoch when the append triggered one.
	Epoch int64
	// Total is the relation's record count at that epoch.
	Total int64
	// Compacted reports whether the append triggered a compaction.
	Compacted bool
}

// Log is the mutable state of one relation: the live append-only
// record file plus the atomically-published current Version. All
// mutations (Append, BuildIndex, Compact) serialize on one mutex;
// Current is wait-free.
type Log struct {
	store       *iosim.Store
	universe    func(geom.Rect) geom.Rect
	compactMin  int64
	compactFrac float64
	autoCompact bool

	cur atomic.Pointer[Version]

	mu      sync.Mutex
	file    *iosim.File // the live log; only mutated under mu
	build   rtree.BuildOptions
	indexed bool
	failed  error // poisoned: a partial low-level append broke the log

	compactions atomic.Int64
}

// New creates a log holding recs as its initial base segment
// (epoch 0, unindexed; call BuildIndex for an index).
func New(cfg Config, recs []geom.Record) (*Log, error) {
	if cfg.Store == nil || cfg.Universe == nil {
		return nil, fmt.Errorf("ingest: Config needs Store and Universe")
	}
	f, err := stream.WriteAll(cfg.Store, stream.Records, recs)
	if err != nil {
		return nil, err
	}
	mbr := geom.EmptyRect()
	for _, r := range recs {
		mbr = mbr.Union(r.Rect)
	}
	l := &Log{
		store:       cfg.Store,
		universe:    cfg.Universe,
		compactMin:  int64(cfg.CompactMin),
		compactFrac: cfg.CompactFrac,
		autoCompact: !cfg.DisableAutoCompact,
		file:        f,
		build:       rtree.DefaultBuildOptions(),
	}
	if l.compactMin <= 0 {
		l.compactMin = DefaultCompactMin
	}
	if l.compactFrac <= 0 {
		l.compactFrac = DefaultCompactFrac
	}
	n := int64(len(recs))
	l.cur.Store(&Version{Epoch: 0, File: f.Snapshot(), N: n, BaseN: n, MBR: mbr})
	return l, nil
}

// Current returns the latest published version. Callers pin it once
// per query and use only that version's File and Tree.
func (l *Log) Current() *Version { return l.cur.Load() }

// Epoch returns the current epoch.
func (l *Log) Epoch() int64 { return l.cur.Load().Epoch }

// Compactions returns how many compactions the log has run.
func (l *Log) Compactions() int64 { return l.compactions.Load() }

// ReleaseInitial hands the log's record pages back to the store.
// Only valid when no version has been published to readers — the
// Catalog.Load error path, undoing a failed load.
func (l *Log) ReleaseInitial() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.file.Release()
	l.failed = fmt.Errorf("ingest: log released")
}

// BuildIndex bulk-loads a packed R-tree over the current records and
// publishes the indexed version, its delta empty. The options are
// retained for later compaction rebuilds, so an ablation's packing
// policy survives ingestion. Appends arriving after the build leave
// the tree alone and collect in the delta run.
func (l *Log) BuildIndex(opts rtree.BuildOptions) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	old := l.cur.Load()
	v, err := l.packed(old, &opts)
	if err != nil {
		return err
	}
	l.build = opts
	l.indexed = true
	if s, ok := old.warmSample(); ok {
		v.sample, v.sampled = s, true
	}
	l.cur.Store(v)
	return nil
}

// Append adds recs to the relation and publishes the new version: the
// log grows, the delta run of an indexed (or warm) relation absorbs
// the batch by merge, the x-center sample absorbs its centers
// likewise, and queries pinned to earlier versions remain untouched.
// The tree is not touched — the successor shares the predecessor's —
// so the only store pages an append allocates are the log's own.
// All records are accepted or none. When the delta crosses the
// compaction threshold the packed layout is rebuilt before returning
// (threshold-triggered compaction; see Config).
func (l *Log) Append(recs []geom.Record) (AppendResult, error) {
	for i, r := range recs {
		if !r.Rect.Valid() {
			return AppendResult{}, fmt.Errorf("ingest: record %d (id %d) has invalid rectangle %v", i, r.ID, r.Rect)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return AppendResult{}, l.failed
	}
	old := l.cur.Load()
	if len(recs) == 0 {
		return AppendResult{Epoch: old.Epoch, Total: old.N}, nil
	}

	buf := make([]byte, len(recs)*geom.RecordSize)
	for i, r := range recs {
		geom.EncodeRecord(buf[i*geom.RecordSize:], r)
	}
	if err := l.file.Append(buf); err != nil {
		// A partial append leaves the log with bytes no version owns;
		// poison the log rather than publish a corrupt successor.
		l.failed = fmt.Errorf("ingest: append failed, log poisoned: %w", err)
		return AppendResult{}, l.failed
	}

	v := &Version{
		Epoch: old.Epoch + 1,
		File:  l.file.Snapshot(),
		Tree:  old.Tree,
		N:     old.N + int64(len(recs)),
		BaseN: old.BaseN,
		MBR:   old.MBR,
	}
	for _, r := range recs {
		v.MBR = v.MBR.Union(r.Rect)
	}
	// Carry a warm sample forward by merge so stripe planning keeps
	// tracking the data without rescanning the log.
	if s, ok := old.warmSample(); ok {
		v.sample = parallel.MergeSamples(s, parallel.SortedCenterSample(recs))
		v.sampled = true
	}
	// The delta run — what index consumers read beside the tree, and
	// the tail of a warm prepared run: the successor shares the base
	// and gets the delta merged with this batch into a fresh slice —
	// work proportional to the delta, which compaction bounds; the
	// merge with the base waits for the first resident join that pins
	// the new epoch. A cold unindexed relation has no reader for it.
	base := old.warmBase()
	v.base, v.baseMaxH = base.Recs, base.MaxH
	if v.base != nil || v.Tree != nil {
		batch := slices.Clone(recs)
		sortByLowerY(batch)
		v.delta, v.deltaMaxH = mergeRuns(old.delta, batch), old.deltaMaxH
		for _, r := range recs {
			v.deltaMaxH = max(v.deltaMaxH, geom.YExtent(r.Rect))
		}
	}
	l.cur.Store(v)

	res := AppendResult{Appended: len(recs), Epoch: v.Epoch, Total: v.N}
	if l.autoCompact && l.needsCompaction(v) {
		if err := l.compactLocked(); err != nil {
			return res, err
		}
		res.Compacted = true
		res.Epoch = l.cur.Load().Epoch
	}
	return res, nil
}

// needsCompaction applies the threshold: a delta of at least
// CompactMin records that is also at least CompactFrac of the base.
func (l *Log) needsCompaction(v *Version) bool {
	d := v.Delta()
	return d >= l.compactMin && float64(d) >= l.compactFrac*float64(v.BaseN)
}

// Compact folds the delta into the base segment now, regardless of
// thresholds: an indexed relation gets a fresh packed bulk load over
// the whole log, an unindexed one just resets the delta accounting.
// It reports whether there was a delta to fold.
func (l *Log) Compact() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return false, l.failed
	}
	if l.cur.Load().Delta() == 0 {
		return false, nil
	}
	return true, l.compactLocked()
}

// compactLocked rebuilds under l.mu and publishes the compacted
// version. The sample is dropped, not carried: merged samples drift
// from the exact stride sample as deltas stack, and the rebuild is
// the natural point to resample the full log.
func (l *Log) compactLocked() error {
	var index *rtree.BuildOptions
	if l.indexed {
		index = &l.build
	}
	v, err := l.packed(l.cur.Load(), index)
	if err != nil {
		return err
	}
	l.cur.Store(v)
	l.compactions.Add(1)
	return nil
}

// packed returns old's unpublished successor with every record in the
// base: the same log prefix, an empty delta run and, when index is
// set, a packed tree bulk-loaded over all of it. The superseded tree
// and delta run are simply no longer referenced — the run is the
// collector's once the last pinned reader lets go, the tree's pages
// stay in the store. A warm prepared run is promoted: the record set
// is unchanged, so the merged run (built now unless a query already
// did) becomes the successor's base — which is what keeps an append's
// merge bounded by the compaction threshold.
func (l *Log) packed(old *Version, index *rtree.BuildOptions) (*Version, error) {
	v := &Version{Epoch: old.Epoch + 1, File: old.File, N: old.N, BaseN: old.N, MBR: old.MBR}
	if old.warmBase().Recs != nil {
		run, _, err := old.Prepared()
		if err != nil {
			return nil, err
		}
		v.base, v.run, v.baseMaxH = run.Recs, run.Recs, run.MaxH
	}
	if index != nil {
		tree, err := rtree.Build(l.store, old.File, l.universe(old.MBR), *index)
		if err != nil {
			return nil, err
		}
		v.Tree = tree
	}
	return v, nil
}
