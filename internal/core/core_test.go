package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/jointest"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// bg is the context for tests that exercise no cancellation.
var bg = context.Background()

// env bundles a store with two relations in both representations.
type env struct {
	store    *iosim.Store
	universe geom.Rect
	recsA    []geom.Record
	recsB    []geom.Record
	fileA    *iosim.File
	fileB    *iosim.File
	treeA    *rtree.Tree
	treeB    *rtree.Tree
}

func buildEnv(t testing.TB, universe geom.Rect, recsA, recsB []geom.Record) *env {
	t.Helper()
	// Fanout 32 keeps test trees multi-level at small record counts.
	return buildEnvOpts(t, universe, recsA, recsB,
		rtree.BuildOptions{Fanout: 32, FillFactor: 0.75, AreaSlack: 0.2, SortMemory: 1 << 20})
}

// buildEnvOpts builds an environment with explicit tree options; I/O
// shape tests use the paper's fanout-400 page-packed trees.
func buildEnvOpts(t testing.TB, universe geom.Rect, recsA, recsB []geom.Record, opts rtree.BuildOptions) *env {
	t.Helper()
	store := iosim.NewStore(iosim.DefaultPageSize)
	fileA, err := stream.WriteAll(store, stream.Records, recsA)
	if err != nil {
		t.Fatal(err)
	}
	fileB, err := stream.WriteAll(store, stream.Records, recsB)
	if err != nil {
		t.Fatal(err)
	}
	treeA, err := rtree.Build(store, fileA, universe, opts)
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := rtree.Build(store, fileB, universe, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &env{store: store, universe: universe,
		recsA: recsA, recsB: recsB, fileA: fileA, fileB: fileB, treeA: treeA, treeB: treeB}
}

func (e *env) options() Options {
	return Options{Store: e.store, Universe: e.universe, MemoryBytes: 1 << 20, BufferPoolBytes: 1 << 20}
}

// collect runs a join function and returns the pairs it emitted, whose
// number its Result must report.
func collect(t testing.TB, run func(Options) (Result, error), opts Options) (jointest.Bag[geom.Pair], Result) {
	t.Helper()
	got := jointest.Bag[geom.Pair]{}
	opts.Emit = got.Add
	res, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != got.Len() {
		t.Fatalf("Pairs=%d but %d emitted", res.Pairs, got.Len())
	}
	return got, res
}

// checkJoin holds the pairs a join emitted over e's two relations to
// the reference.
func (e *env) checkJoin(t testing.TB, name string, got jointest.Bag[geom.Pair]) {
	t.Helper()
	jointest.CheckJoin(t, name, e.recsA, e.recsB, jointest.Join(e.recsA, e.recsB, nil), got)
}

// allAlgorithms runs SSSJ, PBSM, ST, PQ (all input combinations) and
// the partitioned SSSJ on one environment and checks them against the
// reference.
func allAlgorithms(t *testing.T, e *env) {
	want := jointest.Join(e.recsA, e.recsB, nil)
	for name, run := range map[string]func(Options) (Result, error){
		"SSSJ":         func(o Options) (Result, error) { return SSSJ(bg, o, e.fileA, e.fileB) },
		"SSSJ-part":    func(o Options) (Result, error) { return SSSJPartitioned(bg, o, e.fileA, e.fileB, 4) },
		"PBSM":         func(o Options) (Result, error) { return PBSM(bg, o, e.fileA, e.fileB) },
		"ST":           func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) },
		"PQ tree/tree": func(o Options) (Result, error) { return PQ(bg, o, TreeInput(e.treeA), TreeInput(e.treeB)) },
		"PQ tree/file": func(o Options) (Result, error) { return PQ(bg, o, TreeInput(e.treeA), FileInput(e.fileB)) },
		"PQ file/tree": func(o Options) (Result, error) { return PQ(bg, o, FileInput(e.fileA), TreeInput(e.treeB)) },
		"PQ file/file": func(o Options) (Result, error) { return PQ(bg, o, FileInput(e.fileA), FileInput(e.fileB)) },
	} {
		got, _ := collect(t, run, e.options())
		jointest.CheckJoin(t, name, e.recsA, e.recsB, want, got)
	}
}

func genUniform(seed int64, n int, universe geom.Rect, maxExt float64) []geom.Record {
	return datagen.Uniform(seed, n, universe, maxExt)
}

func TestAllAlgorithmsAgreeUniform(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(1, 800, u, 40), genUniform(2, 600, u, 40))
	allAlgorithms(t, e)
}

func TestAllAlgorithmsAgreeClustered(t *testing.T) {
	u := geom.NewRect(0, 0, 2000, 1000)
	terr := datagen.NewTerrain(3, u, 12)
	roads := datagen.Roads(terr, 4, 1200, datagen.RoadParams{MeanLen: 0.02})
	hydro := datagen.Hydro(terr, 5, 400, datagen.HydroParams{MeanSize: 0.03})
	e := buildEnv(t, u, roads, hydro)
	allAlgorithms(t, e)
}

func TestAllAlgorithmsAgreeSkewed(t *testing.T) {
	// Everything piled into one corner: stresses PBSM tiles and the
	// striped sweep's clamping.
	u := geom.NewRect(0, 0, 1000, 1000)
	corner := geom.NewRect(0, 0, 100, 100)
	e := buildEnv(t, u, genUniform(6, 500, corner, 20), genUniform(7, 500, corner, 20))
	allAlgorithms(t, e)
}

func TestAllAlgorithmsAgreeDisjointInputs(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	left := genUniform(8, 300, geom.NewRect(0, 0, 400, 1000), 20)
	right := genUniform(9, 300, geom.NewRect(600, 0, 1000, 1000), 20)
	e := buildEnv(t, u, left, right)
	if jointest.Join(left, right, nil).Len() != 0 {
		t.Fatal("test setup: inputs should be disjoint")
	}
	allAlgorithms(t, e)
}

func TestAllAlgorithmsAgreeEmptySide(t *testing.T) {
	u := geom.NewRect(0, 0, 100, 100)
	e := buildEnv(t, u, genUniform(10, 50, u, 10), nil)
	allAlgorithms(t, e)
}

func TestAlgorithmsPropertyQuick(t *testing.T) {
	u := geom.NewRect(0, 0, 500, 500)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := 50+rng.Intn(250), 50+rng.Intn(250)
		recsA := genUniform(seed, na, u, 60)
		recsB := genUniform(seed+999, nb, u, 60)
		e := buildEnv(t, u, recsA, recsB)
		want := jointest.Join(recsA, recsB, nil)

		check := func(run func(Options) (Result, error)) bool {
			got := jointest.Bag[geom.Pair]{}
			o := e.options()
			o.Emit = got.Add
			if _, err := run(o); err != nil {
				return false
			}
			missing, surplus := jointest.Diff(want, got)
			return len(missing)+len(surplus) == 0
		}
		return check(func(o Options) (Result, error) { return SSSJ(bg, o, e.fileA, e.fileB) }) &&
			check(func(o Options) (Result, error) { return PBSM(bg, o, e.fileA, e.fileB) }) &&
			check(func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) }) &&
			check(func(o Options) (Result, error) { return PQ(bg, o, TreeInput(e.treeA), FileInput(e.fileB)) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := SSSJ(bg, Options{}, nil, nil); err == nil {
		t.Fatal("missing store must error")
	}
	store := iosim.NewStore(iosim.DefaultPageSize)
	bad := Options{Store: store, Universe: geom.EmptyRect()}
	if _, err := SSSJ(bg, bad, nil, nil); err == nil {
		t.Fatal("invalid universe must error")
	}
	if _, err := PQ(bg, Options{Store: store, Universe: geom.NewRect(0, 0, 1, 1)}, Input{}, Input{}); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := ST(bg, Options{Store: store, Universe: geom.NewRect(0, 0, 1, 1)}, nil, nil); err == nil {
		t.Fatal("nil trees must error")
	}
	u := geom.NewRect(0, 0, 100, 100)
	e := buildEnv(t, u, genUniform(11, 20, u, 5), genUniform(12, 20, u, 5))
	if _, err := SSSJPartitioned(bg, e.options(), e.fileA, e.fileB, 0); err == nil {
		t.Fatal("zero slabs must error")
	}
}

func TestSSSJIOShape(t *testing.T) {
	// §3.1: sort-based SSSJ is two sequential read passes, one
	// non-sequential read pass, two sequential write passes — and far
	// more sequential than random I/O overall.
	u := geom.NewRect(0, 0, 2000, 2000)
	e := buildEnv(t, u, genUniform(13, 20000, u, 10), genUniform(14, 15000, u, 10))
	o := e.options()
	o.MemoryBytes = 128 << 10 // force real external sorting
	_, res := collect(t, func(o Options) (Result, error) { return SSSJ(bg, o, e.fileA, e.fileB) }, o)
	if res.IO.SeqReads < 2*res.IO.RandReads {
		t.Fatalf("SSSJ should be mostly sequential: %v", res.IO)
	}
	dataPages := int64(e.fileA.Pages() + e.fileB.Pages())
	if res.IO.Reads() < 2*dataPages || res.IO.Reads() > 4*dataPages {
		t.Fatalf("SSSJ reads = %d for %d data pages", res.IO.Reads(), dataPages)
	}
	if len(res.SortStats) != 2 || res.SortStats[0].Runs < 2 {
		t.Fatalf("expected multi-run sorts: %+v", res.SortStats)
	}
}

func TestSSSJOverflowDetection(t *testing.T) {
	// A block of fully-overlapping rectangles keeps everything active:
	// with a tiny budget SSSJ must report ErrSweepOverflow.
	u := geom.NewRect(0, 0, 100, 100)
	var recs []geom.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, geom.Record{Rect: geom.NewRect(0, 0, 100, 100), ID: uint32(i)})
	}
	e := buildEnv(t, u, recs, recs)
	o := e.options()
	o.MemoryBytes = 32 << 10 // floor is 4 pages on an 8K store
	_, err := SSSJ(bg, o, e.fileA, e.fileB)
	if !errors.Is(err, ErrSweepOverflow) {
		t.Fatalf("expected ErrSweepOverflow, got %v", err)
	}
	// The partitioned fallback also cannot shrink all-overlapping data,
	// but on x-separable data it can; see TestSSSJPartitionedBounds.
}

func TestSSSJPartitionedBoundsMemory(t *testing.T) {
	// Wide flat rectangles spread along x: a single sweep holds many at
	// once, slabs hold 1/k as many.
	u := geom.NewRect(0, 0, 10000, 100)
	var a, b []geom.Record
	for i := 0; i < 4000; i++ {
		x := float32(i * 2)
		a = append(a, geom.Record{Rect: geom.NewRect(x, 0, x+30, 100), ID: uint32(i)})
		b = append(b, geom.Record{Rect: geom.NewRect(x+1, 0, x+31, 100), ID: uint32(100000 + i)})
	}
	e := buildEnv(t, u, a, b)
	_, plain := collect(t, func(o Options) (Result, error) { return SSSJ(bg, o, e.fileA, e.fileB) }, e.options())
	_, parted := collect(t, func(o Options) (Result, error) { return SSSJPartitioned(bg, o, e.fileA, e.fileB, 8) }, e.options())
	if parted.Sweep.MaxLen*2 > plain.Sweep.MaxLen {
		t.Fatalf("slabs should shrink the active set: %d vs %d", parted.Sweep.MaxLen, plain.Sweep.MaxLen)
	}
	if parted.Pairs != plain.Pairs {
		t.Fatalf("pair counts differ: %d vs %d", parted.Pairs, plain.Pairs)
	}
}

func TestPBSMStatsAndReplication(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(15, 5000, u, 30), genUniform(16, 5000, u, 30))
	o := e.options()
	o.MemoryBytes = 64 << 10 // force several partitions
	_, res := collect(t, func(o Options) (Result, error) { return PBSM(bg, o, e.fileA, e.fileB) }, o)
	if res.PBSM == nil {
		t.Fatal("missing PBSM stats")
	}
	if res.PBSM.Partitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", res.PBSM.Partitions)
	}
	if res.PBSM.Replication < 1 {
		t.Fatalf("replication %f < 1", res.PBSM.Replication)
	}
	if res.PBSM.MaxPartitionBytes <= 0 {
		t.Fatal("max partition bytes not tracked")
	}
}

func TestPBSMFewTilesOverflows(t *testing.T) {
	// The paper's observation: with 32x32 tiles on clustered data,
	// partitions overflow memory; 128x128 fixes it. With heavy
	// clustering and few tiles, at least the stats must notice.
	u := geom.NewRect(0, 0, 1000, 1000)
	corner := geom.NewRect(0, 0, 60, 60) // extreme clustering
	e := buildEnv(t, u, genUniform(17, 8000, corner, 5), genUniform(18, 8000, corner, 5))
	o := e.options()
	o.MemoryBytes = 64 << 10
	o.PBSMTilesPerAxis = 4
	_, few := collect(t, func(o Options) (Result, error) { return PBSM(bg, o, e.fileA, e.fileB) }, o)
	if few.PBSM.OverflowedParts == 0 {
		t.Fatal("coarse tiles on clustered data should overflow")
	}
	if few.PBSM.SwapPages == 0 {
		t.Fatal("overflow must charge swap I/O")
	}
	o.PBSMTilesPerAxis = 128
	_, many := collect(t, func(o Options) (Result, error) { return PBSM(bg, o, e.fileA, e.fileB) }, o)
	if many.PBSM.MaxPartitionBytes >= few.PBSM.MaxPartitionBytes {
		t.Fatalf("finer tiles should shrink the largest partition: %d vs %d",
			many.PBSM.MaxPartitionBytes, few.PBSM.MaxPartitionBytes)
	}
}

func TestSTPageRequestsSmallTreesFitPool(t *testing.T) {
	// NJ/NY regime (Table 4): pool holds both trees, every page read
	// from disk at most once, so requests <= total nodes.
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(19, 3000, u, 15), genUniform(20, 2000, u, 15))
	o := e.options()
	o.BufferPoolBytes = 8 << 20
	_, res := collect(t, func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) }, o)
	total := int64(e.treeA.NumNodes() + e.treeB.NumNodes())
	if res.PageRequests > total {
		t.Fatalf("ST requests %d > %d nodes despite a big pool", res.PageRequests, total)
	}
	if res.LogicalRequests < res.PageRequests {
		t.Fatal("logical requests cannot be below disk requests")
	}
}

func TestSTPageRequestsSmallPoolRereads(t *testing.T) {
	// DISK1+ regime (Table 4): pool much smaller than the trees, pages
	// rerequested 1.1-1.7x on average.
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(21, 12000, u, 12), genUniform(22, 9000, u, 12))
	o := e.options()
	o.BufferPoolBytes = 64 << 10 // 8 pages
	_, res := collect(t, func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) }, o)
	total := int64(e.treeA.NumNodes() + e.treeB.NumNodes())
	if res.PageRequests <= total {
		t.Fatalf("tiny pool should cause rereads: %d requests for %d nodes", res.PageRequests, total)
	}
	avg := float64(res.PageRequests) / float64(total)
	if avg > 5 {
		t.Fatalf("reread factor %.2f implausibly high", avg)
	}
}

func TestSTDifferentHeights(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	big := genUniform(23, 8000, u, 10)
	tiny := genUniform(24, 40, u, 50)
	e := buildEnv(t, u, big, tiny)
	if e.treeA.Height() == e.treeB.Height() {
		t.Skip("trees ended up the same height; adjust sizes")
	}
	got, _ := collect(t, func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) }, e.options())
	e.checkJoin(t, "ST heights", got)
	// And flipped.
	got, _ = collect(t, func(o Options) (Result, error) { return ST(bg, o, e.treeB, e.treeA) }, e.options())
	jointest.CheckJoin(t, "ST heights flipped", tiny, big, jointest.Join(tiny, big, nil), got)
}

func TestPQTouchesEachTreePageOnce(t *testing.T) {
	// Table 4: PQ's page requests equal the tree sizes exactly.
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(25, 6000, u, 12), genUniform(26, 5000, u, 12))
	_, res := collect(t, func(o Options) (Result, error) {
		return PQ(bg, o, TreeInput(e.treeA), TreeInput(e.treeB))
	}, e.options())
	want := int64(e.treeA.NumNodes() + e.treeB.NumNodes())
	if res.PageRequests != want {
		t.Fatalf("PQ requests = %d, want exactly %d", res.PageRequests, want)
	}
}

func TestPQMemoryTracked(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(27, 6000, u, 12), genUniform(28, 5000, u, 12))
	_, res := collect(t, func(o Options) (Result, error) {
		return PQ(bg, o, TreeInput(e.treeA), TreeInput(e.treeB))
	}, e.options())
	if res.ScannerMaxBytes == 0 || res.SweepMaxBytes == 0 {
		t.Fatalf("memory not tracked: scanner=%d sweep=%d", res.ScannerMaxBytes, res.SweepMaxBytes)
	}
	dataBytes := (len(e.recsA) + len(e.recsB)) * geom.RecordSize
	if res.ScannerMaxBytes > dataBytes/2 {
		t.Fatalf("scanner memory %d too large vs data %d", res.ScannerMaxBytes, dataBytes)
	}
}

func TestPQWindowRestriction(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(29, 6000, u, 10), genUniform(30, 4000, u, 10))
	window := geom.NewRect(0, 0, 250, 250)
	o := e.options()
	o.Window = &window
	got, res := collect(t, func(o Options) (Result, error) {
		return PQ(bg, o, TreeInput(e.treeA), TreeInput(e.treeB))
	}, o)
	jointest.CheckJoin(t, "PQ window", e.recsA, e.recsB, jointest.Join(e.recsA, e.recsB, &window), got)
	full := int64(e.treeA.NumNodes() + e.treeB.NumNodes())
	if res.PageRequests >= full {
		t.Fatalf("windowed PQ read %d of %d pages", res.PageRequests, full)
	}
}

func TestPQRestrictScannersDisjointTrees(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	left := genUniform(31, 3000, geom.NewRect(0, 0, 400, 1000), 10)
	right := genUniform(32, 3000, geom.NewRect(600, 0, 1000, 1000), 10)
	e := buildEnv(t, u, left, right)
	o := e.options()
	o.RestrictScanners = true
	got, res := collect(t, func(o Options) (Result, error) {
		return PQ(bg, o, TreeInput(e.treeA), TreeInput(e.treeB))
	}, o)
	if got.Len() != 0 {
		t.Fatal("disjoint trees should produce nothing")
	}
	full := int64(e.treeA.NumNodes() + e.treeB.NumNodes())
	if res.PageRequests > full/4 {
		t.Fatalf("restricted scan should skip most pages: %d of %d", res.PageRequests, full)
	}
}

func TestPQRandomIOVsSSSJSequential(t *testing.T) {
	// §6.3: PQ's tree traversal is random I/O, SSSJ's passes are
	// sequential — the observation behind the whole cost model.
	u := geom.NewRect(0, 0, 2000, 2000)
	e := buildEnvOpts(t, u, genUniform(33, 60000, u, 10), genUniform(34, 50000, u, 10),
		rtree.DefaultBuildOptions())
	o := e.options()
	o.MemoryBytes = 1 << 20
	_, pqRes := collect(t, func(o Options) (Result, error) {
		return PQ(bg, o, TreeInput(e.treeA), TreeInput(e.treeB))
	}, o)
	_, sjRes := collect(t, func(o Options) (Result, error) { return SSSJ(bg, o, e.fileA, e.fileB) }, o)
	if pqRes.IO.RandReads < pqRes.IO.SeqReads {
		t.Fatalf("PQ should be mostly random: %v", pqRes.IO)
	}
	if sjRes.IO.SeqReads < sjRes.IO.RandReads {
		t.Fatalf("SSSJ should be mostly sequential: %v", sjRes.IO)
	}
	// On a fast-disk machine, SSSJ's observed I/O time should win even
	// though it moves more pages (Figure 3).
	m := iosim.Machine3
	if sjRes.IO.Total() <= pqRes.IO.Total() {
		t.Fatalf("setup: SSSJ should move more pages (%d vs %d)", sjRes.IO.Total(), pqRes.IO.Total())
	}
	if sjRes.ObservedIOTime(m) >= pqRes.ObservedIOTime(m) {
		t.Fatalf("SSSJ observed IO %v should beat PQ %v on machine 3",
			sjRes.ObservedIOTime(m), pqRes.ObservedIOTime(m))
	}
}

func TestResultTimeAccessors(t *testing.T) {
	res := Result{IO: iosim.Counters{SeqReads: 100, RandReads: 10}, HostCPU: 1000000}
	m := iosim.Machine1
	if res.ObservedTotal(m) != res.CPUTime(m)+res.ObservedIOTime(m) {
		t.Fatal("ObservedTotal must decompose")
	}
	if res.EstimatedTotal(m) != res.CPUTime(m)+res.EstimatedIOTime(m) {
		t.Fatal("EstimatedTotal must decompose")
	}
	if res.EstimatedIOTime(m) <= res.ObservedIOTime(m) {
		t.Fatal("estimating everything as random must cost more than the mostly-sequential observed time")
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestPQOnFilesIsSSSJ is the paper's "degenerates to SSSJ" as an
// assertion: on two non-indexed inputs PQ and SSSJ report the same
// pairs in the same order and the same accounting — disk counters
// under both cache models, external sorts, sweep statistics — windowed
// and not, with a memory budget that forces multi-run sorts. Each run
// gets a store of its own so that page allocation cannot differ.
func TestPQOnFilesIsSSSJ(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	recsA, recsB := genUniform(120, 30000, u, 8), genUniform(121, 25000, u, 12)
	window := geom.NewRect(200, 150, 700, 800)
	for _, win := range []*geom.Rect{nil, &window} {
		type outcome struct {
			pairs []geom.Pair
			res   Result
		}
		var got [2]outcome
		for i, join := range []func(Options, *env) (Result, error){
			func(o Options, e *env) (Result, error) { return SSSJ(bg, o, e.fileA, e.fileB) },
			func(o Options, e *env) (Result, error) { return PQ(bg, o, FileInput(e.fileA), FileInput(e.fileB)) },
		} {
			e := buildEnv(t, u, recsA, recsB)
			o := e.options()
			o.MemoryBytes = 256 << 10
			o.Window = win
			o.Emit = func(p geom.Pair) { got[i].pairs = append(got[i].pairs, p) }
			res, err := join(o, e)
			if err != nil {
				t.Fatal(err)
			}
			res.Algorithm, res.HostCPU, res.PartitionWall, res.SweepWall = "", 0, 0, 0
			got[i].res = res
		}
		if len(got[0].pairs) == 0 || got[0].res.SortStats[0].Runs < 2 {
			t.Fatalf("window %v: the case is too small to tell: %d pairs, sorts %+v", win, len(got[0].pairs), got[0].res.SortStats)
		}
		if !slices.Equal(got[0].pairs, got[1].pairs) {
			t.Fatalf("window %v: SSSJ emits %d pairs, PQ over files %d, or in another order", win, len(got[0].pairs), len(got[1].pairs))
		}
		if !reflect.DeepEqual(got[0].res, got[1].res) {
			t.Fatalf("window %v: accounting differs:\nSSSJ %+v\nPQ   %+v", win, got[0].res, got[1].res)
		}
	}
}
