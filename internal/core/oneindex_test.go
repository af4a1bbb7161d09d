package core

import (
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/rtree"
)

func TestBFRJMatchesBruteForce(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(90, 900, u, 30), genUniform(91, 700, u, 30))
	got, res := collect(t, func(o Options) (Result, error) { return BFRJ(bg, o, e.treeA, e.treeB) }, e.options())
	e.checkJoin(t, "BFRJ", got)
	if res.ScannerMaxBytes == 0 {
		t.Fatal("intermediate join index size not tracked")
	}
}

func TestBFRJDifferentHeights(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	big := genUniform(92, 8000, u, 10)
	tiny := genUniform(93, 40, u, 50)
	e := buildEnv(t, u, big, tiny)
	if e.treeA.Height() == e.treeB.Height() {
		t.Skip("trees same height")
	}
	got, _ := collect(t, func(o Options) (Result, error) { return BFRJ(bg, o, e.treeA, e.treeB) }, e.options())
	e.checkJoin(t, "BFRJ heights", got)
}

func TestBFRJNearOptimalIO(t *testing.T) {
	// The claim of [16] quoted in the paper: BFRJ performs an almost
	// optimal number of I/Os "if a sufficiently large buffer pool is
	// available", and its global ordering beats ST's depth-first
	// rereads even on a small pool.
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(94, 12000, u, 12), genUniform(95, 9000, u, 12))
	lower := int64(e.treeA.NumNodes() + e.treeB.NumNodes())

	small := e.options()
	small.BufferPoolBytes = 64 << 10 // 8 pages
	_, st := collect(t, func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) }, small)
	_, bf := collect(t, func(o Options) (Result, error) { return BFRJ(bg, o, e.treeA, e.treeB) }, small)
	if bf.PageRequests >= st.PageRequests {
		t.Fatalf("BFRJ (%d) should request fewer pages than ST (%d)", bf.PageRequests, st.PageRequests)
	}

	decent := e.options()
	decent.BufferPoolBytes = int(lower) * e.store.PageSize() / 2 // pool = half the trees
	_, st2 := collect(t, func(o Options) (Result, error) { return ST(bg, o, e.treeA, e.treeB) }, decent)
	_, bf2 := collect(t, func(o Options) (Result, error) { return BFRJ(bg, o, e.treeA, e.treeB) }, decent)
	if float64(bf2.PageRequests) > 1.2*float64(lower) {
		t.Fatalf("BFRJ requests %d vs lower bound %d; want near-optimal with a decent pool",
			bf2.PageRequests, lower)
	}
	// With a pool this size ST is near-optimal too (the Table 4 NJ/NY
	// regime); BFRJ must stay in the same band rather than beat it.
	if float64(bf2.PageRequests) > 1.1*float64(st2.PageRequests) {
		t.Fatalf("BFRJ (%d) far above ST (%d) with a decent pool", bf2.PageRequests, st2.PageRequests)
	}
}

func TestBFRJEmptyAndValidation(t *testing.T) {
	u := geom.NewRect(0, 0, 100, 100)
	e := buildEnv(t, u, genUniform(96, 50, u, 10), nil)
	got, _ := collect(t, func(o Options) (Result, error) { return BFRJ(bg, o, e.treeA, e.treeB) }, e.options())
	if len(got) != 0 {
		t.Fatal("empty side should produce nothing")
	}
	if _, err := BFRJ(bg, e.options(), nil, e.treeB); err == nil {
		t.Fatal("nil tree must error")
	}
}

func TestINLMatchesBruteForce(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(97, 2000, u, 20), genUniform(98, 300, u, 20))
	got, res := collect(t, func(o Options) (Result, error) { return INL(bg, o, e.treeA, e.fileB) }, e.options())
	e.checkJoin(t, "INL", got)
	if res.PageRequests == 0 {
		t.Fatal("INL page requests not tracked")
	}
	if _, err := INL(bg, e.options(), nil, e.fileB); err == nil {
		t.Fatal("nil tree must error")
	}
}

func TestINLProbeCostGrowsWithOuter(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	inner := genUniform(99, 8000, u, 10)
	smallOuter := genUniform(100, 50, u, 10)
	bigOuter := genUniform(101, 5000, u, 10)
	e := buildEnv(t, u, inner, smallOuter)
	eBig := buildEnv(t, u, inner, bigOuter)
	o := e.options()
	o.BufferPoolBytes = 64 << 10
	_, small := collect(t, func(o Options) (Result, error) { return INL(bg, o, e.treeA, e.fileB) }, o)
	o2 := eBig.options()
	o2.BufferPoolBytes = 64 << 10
	_, big := collect(t, func(o Options) (Result, error) { return INL(bg, o, eBig.treeA, eBig.fileB) }, o2)
	if big.LogicalRequests <= small.LogicalRequests*10 {
		t.Fatalf("INL probes should scale with the outer: %d vs %d",
			big.LogicalRequests, small.LogicalRequests)
	}
}

func TestSeededTreeJoinMatchesBruteForce(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnvOpts(t, u, genUniform(102, 6000, u, 15), genUniform(103, 3000, u, 15),
		rtree.BuildOptions{Fanout: 32, FillFactor: 0.75, AreaSlack: 0.2, SortMemory: 1 << 20})
	got, _ := collect(t, func(o Options) (Result, error) {
		return SeededTreeJoin(bg, o, e.treeA, e.fileB)
	}, e.options())
	e.checkJoin(t, "SeededST", got)
	if _, err := SeededTreeJoin(bg, e.options(), nil, e.fileB); err == nil {
		t.Fatal("nil tree must error")
	}
}

func TestSeededTreeJoinVsPQOneIndex(t *testing.T) {
	// The paper's point about the one-index case: PQ needs only a sort
	// of the non-indexed side, while the seeded-tree approach must
	// build a whole index first — more I/O for the same answer.
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnvOpts(t, u, genUniform(104, 20000, u, 10), genUniform(105, 15000, u, 10),
		rtree.DefaultBuildOptions())
	o := e.options()
	_, seeded := collect(t, func(o Options) (Result, error) {
		return SeededTreeJoin(bg, o, e.treeA, e.fileB)
	}, o)
	_, pq := collect(t, func(o Options) (Result, error) {
		return PQ(bg, o, Input{Tree: e.treeA}, FileInput(e.fileB))
	}, o)
	if pq.Pairs != seeded.Pairs {
		t.Fatalf("pair counts differ: %d vs %d", pq.Pairs, seeded.Pairs)
	}
	if seeded.IO.Writes() <= pq.IO.Writes() {
		t.Fatalf("seeded tree must write an index (writes %d vs PQ's %d)",
			seeded.IO.Writes(), pq.IO.Writes())
	}
}
