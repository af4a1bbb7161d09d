package core

import (
	"math"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/jointest"
)

func TestThresholdMatchesPaperFor10xDisk(t *testing.T) {
	// §6.3 assumes a random read costs ~10x a sequential read and
	// concludes "use the index only when the join involves less than
	// 60% of the leaf nodes". A synthetic disk with exactly that ratio
	// must produce exactly 0.6.
	m := iosim.Machine{
		Name:     "paper-model",
		CPUMHz:   500,
		PageSize: 8192,
		Disk: iosim.DiskModel{
			// seq read = 8192B / 10MB/s = 0.8192 ms; rand = 10x.
			PeakMBps:    10,
			AvgAccessMs: 9 * 8192.0 / 10e6 * 1e3,
		},
	}
	p := Planner{Machine: m}
	if got := p.Threshold(); math.Abs(got-0.6) > 0.001 {
		t.Fatalf("threshold = %.4f, want 0.6", got)
	}
}

func TestThresholdsForPaperMachines(t *testing.T) {
	// Machine 1's disk ratio is close to 10x, so its threshold lands
	// near the paper's 60%; machines 2 and 3 have much higher ratios
	// (fast transfer, unchanged seeks), pushing thresholds down.
	t1 := Planner{Machine: iosim.Machine1}.Threshold()
	t2 := Planner{Machine: iosim.Machine2}.Threshold()
	t3 := Planner{Machine: iosim.Machine3}.Threshold()
	if t1 < 0.4 || t1 > 0.7 {
		t.Fatalf("machine 1 threshold = %.3f, want near 0.6", t1)
	}
	if t2 >= t1 || t3 >= t1 {
		t.Fatalf("faster-transfer disks must have lower thresholds: %.3f %.3f %.3f", t1, t2, t3)
	}
}

func TestPlannerChoosesSortForFullOverlap(t *testing.T) {
	// Fully overlapping inputs touch ~100% of the leaves: on every
	// machine the planner must take the sort path for both sides.
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(40, 4000, u, 15), genUniform(41, 3000, u, 15))
	p := Planner{Machine: iosim.Machine1}
	d, err := p.Plan(bg, e.options(), Input{File: e.fileA, Tree: e.treeA}, Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	if d.UseIndexA || d.UseIndexB {
		t.Fatalf("full overlap should use sort on both sides: %v", d)
	}
	if d.FracA < 0.7 || d.FracB < 0.7 {
		t.Fatalf("estimated fractions too low for full overlap: %v", d)
	}
}

func TestPlannerChoosesIndexForSelectiveJoin(t *testing.T) {
	// A tiny localized relation against a country-wide one: the big
	// side's index should be used (few leaves touched), the small side
	// sorted or indexed either way.
	u := geom.NewRect(0, 0, 1000, 1000)
	big := genUniform(42, 20000, u, 8)
	small := genUniform(43, 300, geom.NewRect(0, 0, 80, 80), 8)
	e := buildEnv(t, u, big, small)
	p := Planner{Machine: iosim.Machine1}
	d, err := p.Plan(bg, e.options(), Input{File: e.fileA, Tree: e.treeA}, Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseIndexA {
		t.Fatalf("selective join should use the big side's index: %v", d)
	}
	if d.FracA > p.Threshold() {
		t.Fatalf("estimated fraction %f should be below threshold %f", d.FracA, p.Threshold())
	}
}

func TestPlannerJoinProducesCorrectPairs(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	big := genUniform(44, 8000, u, 8)
	small := genUniform(45, 200, geom.NewRect(100, 100, 220, 220), 10)
	e := buildEnv(t, u, big, small)
	p := Planner{Machine: iosim.Machine1}
	got := jointest.Bag[geom.Pair]{}
	o := e.options()
	o.Emit = got.Add
	d, res, err := p.Join(bg, o, Input{File: e.fileA, Tree: e.treeA}, Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	e.checkJoin(t, "planner join", got)
	if d.UseIndexA && res.PageRequests >= int64(e.treeA.NumNodes()) {
		t.Fatalf("index path should skip pages: %d of %d", res.PageRequests, e.treeA.NumNodes())
	}
	if d.String() == "" {
		t.Fatal("empty decision string")
	}
}

func TestPlannerWindowLowersEstimate(t *testing.T) {
	u := geom.NewRect(0, 0, 1000, 1000)
	e := buildEnv(t, u, genUniform(46, 5000, u, 10), genUniform(47, 4000, u, 10))
	p := Planner{Machine: iosim.Machine1}
	noWin, err := p.Plan(bg, e.options(), Input{File: e.fileA, Tree: e.treeA}, Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	o := e.options()
	w := geom.NewRect(0, 0, 150, 150)
	o.Window = &w
	withWin, err := p.Plan(bg, o, Input{File: e.fileA, Tree: e.treeA}, Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	if withWin.FracA >= noWin.FracA {
		t.Fatalf("window should lower the estimate: %f vs %f", withWin.FracA, noWin.FracA)
	}
}

func TestPlannerHandlesTreeOnlyInput(t *testing.T) {
	u := geom.NewRect(0, 0, 500, 500)
	e := buildEnv(t, u, genUniform(48, 2000, u, 10), genUniform(49, 1500, u, 10))
	p := Planner{Machine: iosim.Machine3}
	d, err := p.Plan(bg, e.options(), TreeInput(e.treeA), Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseIndexA {
		t.Fatal("tree-only input must take the index path")
	}
	if _, err := p.Plan(bg, e.options(), Input{}, FileInput(e.fileB)); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestPlannerMinSkewEstimator(t *testing.T) {
	// The MinSkew estimator must reach the same qualitative decisions
	// as the grid on clearly separable cases.
	u := geom.NewRect(0, 0, 1000, 1000)
	big := genUniform(120, 15000, u, 8)
	small := genUniform(121, 300, geom.NewRect(0, 0, 80, 80), 8)
	e := buildEnv(t, u, big, small)
	p := Planner{Machine: iosim.Machine1, UseMinSkew: true}
	d, err := p.Plan(bg, e.options(), Input{File: e.fileA, Tree: e.treeA}, Input{File: e.fileB, Tree: e.treeB})
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseIndexA {
		t.Fatalf("selective join should use the index under MinSkew too: %v", d)
	}
	// Full overlap: sort both sides.
	e2 := buildEnv(t, u, genUniform(122, 5000, u, 12), genUniform(123, 4000, u, 12))
	d2, err := p.Plan(bg, e2.options(), Input{File: e2.fileA, Tree: e2.treeA}, Input{File: e2.fileB, Tree: e2.treeB})
	if err != nil {
		t.Fatal(err)
	}
	if d2.UseIndexA || d2.UseIndexB {
		t.Fatalf("full overlap should sort under MinSkew: %v", d2)
	}
}
