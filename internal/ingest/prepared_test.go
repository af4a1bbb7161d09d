package ingest

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/jointest"
	"unijoin/internal/rtree"
)

// sortedVersion is the definition Prepared must meet: the version's
// own records, read from its pinned file, ordered by ByLowerY — and
// bounded by exactly the tallest of them.
func sortedVersion(t *testing.T, v *Version) []geom.Record {
	t.Helper()
	recs := readVersion(t, v)
	slices.SortFunc(recs, geom.ByLowerY)
	return recs
}

func checkPrepared(t *testing.T, step string, v *Version) Build {
	t.Helper()
	got, build, err := v.Prepared()
	if err != nil {
		t.Fatalf("%s: Prepared: %v", step, err)
	}
	if want := sortedVersion(t, v); !slices.Equal(got.Recs, want) {
		t.Fatalf("%s: epoch %d: Prepared returned %d records that are not the %d sorted records of the version",
			step, v.Epoch, len(got.Recs), len(want))
	}
	tallest := 0.0
	for _, r := range got.Recs {
		tallest = max(tallest, geom.YExtent(r.Rect))
	}
	if got.MaxH != tallest {
		t.Fatalf("%s: epoch %d: the run's y-extent bound is %v, a pass over its records finds %v", step, v.Epoch, got.MaxH, tallest)
	}
	return build
}

// TestPreparedMatchesSortedLog drives random interleavings of Append,
// BuildIndex and Compact, asking for the prepared run at random points
// (so successors are published from cold, carried-but-unmerged and
// merged predecessors alike), and checks every answer — including the
// answers of versions pinned many epochs ago — against the sorted log.
func TestPreparedMatchesSortedLog(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A low threshold so automatic compactions fire inside the walk.
		l := newLog(t, Config{CompactMin: 300}, genRecords(rng, 200+rng.Intn(400), 0))
		nextID := 1000
		var pinned []*Version
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				n := 1 + rng.Intn(120)
				if _, err := l.Append(genRecords(rng, n, nextID)); err != nil {
					t.Fatal(err)
				}
				nextID += n
			case op < 6:
				if err := l.BuildIndex(rtree.DefaultBuildOptions()); err != nil {
					t.Fatal(err)
				}
			case op < 7:
				if _, err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			default:
				checkPrepared(t, "live", l.Current())
			}
			if rng.Intn(4) == 0 {
				pinned = append(pinned, l.Current())
			}
		}
		checkPrepared(t, "final", l.Current())
		for _, v := range pinned {
			checkPrepared(t, "pinned", v)
		}
	}
}

// TestPreparedLifecycle pins what each step of a relation's life costs:
// one full build ever, one merge per appended epoch that is queried,
// nothing for index builds, and a compaction that promotes the merged
// run so the next delta starts empty.
func TestPreparedLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := newLog(t, Config{DisableAutoCompact: true}, genRecords(rng, 800, 0))

	// Cold relation: appends carry nothing and cost nothing extra.
	if _, err := l.Append(genRecords(rng, 50, 800)); err != nil {
		t.Fatal(err)
	}
	if v := l.Current(); v.base != nil || v.delta != nil {
		t.Fatal("an append to a cold relation built a run")
	}
	if b := checkPrepared(t, "cold", l.Current()); b != BuildFull {
		t.Fatalf("first Prepared = %q, want full", b)
	}
	if b := checkPrepared(t, "warm", l.Current()); b != BuildNone {
		t.Fatalf("second Prepared on the same version = %q, want none", b)
	}

	// Two appends with no query between them: the delta run absorbs
	// both, the base is shared, and the one merge happens on demand.
	v0 := l.Current()
	for i := 0; i < 2; i++ {
		if _, err := l.Append(genRecords(rng, 40, 900+40*i)); err != nil {
			t.Fatal(err)
		}
	}
	v2 := l.Current()
	if len(v2.delta) != 80 || &v2.base[0] != &v0.base[0] {
		t.Fatalf("carried run: delta %d records (want 80), base shared = %v", len(v2.delta), &v2.base[0] == &v0.base[0])
	}
	if b := checkPrepared(t, "merge", v2); b != BuildMerge {
		t.Fatalf("Prepared after appends = %q, want merge", b)
	}

	// An index build republishes the same records: the run rides along.
	if err := l.BuildIndex(rtree.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	if b := checkPrepared(t, "indexed", l.Current()); b != BuildNone {
		t.Fatalf("Prepared after BuildIndex = %q, want none", b)
	}

	// Compaction promotes: merged run becomes the base, delta restarts.
	if _, err := l.Append(genRecords(rng, 30, 2000)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	vc := l.Current()
	if int64(len(vc.base)) != vc.N || len(vc.delta) != 0 {
		t.Fatalf("compaction left base %d / delta %d records for N = %d", len(vc.base), len(vc.delta), vc.N)
	}
	if b := checkPrepared(t, "compacted", vc); b != BuildNone {
		t.Fatalf("Prepared after compaction = %q, want none", b)
	}
	// The versions left behind still answer for their own prefixes.
	checkPrepared(t, "old v0", v0)
	checkPrepared(t, "old v2", v2)
}

// TestPreparedRunBound: the y-extent bound a windowed join cuts the run
// by is carried, never recomputed — the base's from its one full build,
// the delta's from each append, the larger of the two on the merge path
// and across a compaction — and still equals a pass over the records
// (checkPrepared makes the pass) wherever the tallest record lands: in
// the base, in the delta, or in a relation that is nothing but delta.
func TestPreparedRunBound(t *testing.T) {
	tall := func(id uint32) geom.Record { return geom.Record{ID: id, Rect: geom.NewRect(400, 5, 420, 960)} }
	for _, name := range []string{"tall", "delta-only", "zero-extent", "spanning", "delta-outside"} {
		for _, indexed := range []bool{false, true} {
			in := jointest.ShapeNamed(name).Gen(5, universe, nil)
			base, delta := in.A[:in.BaseA], in.A[in.BaseA:]
			for _, c := range []struct {
				where                       string
				cold, inBase, inDelta, late bool
			}{
				// Cold until after the append: one full build bounds both halves.
				{where: "cold", cold: true},
				// Warm before it: the append carries the base, Prepared merges.
				{where: "tallest in the base", inBase: true},
				{where: "tallest in the delta", inDelta: true},
				{where: "tallest appended last", late: true},
			} {
				what := fmt.Sprintf("%s indexed=%v %s", name, indexed, c.where)
				base, delta := slices.Clone(base), slices.Clone(delta)
				if c.inBase {
					base = append(base, tall(9000))
				}
				if c.inDelta {
					delta = append(delta, tall(9000))
				}
				l := newLog(t, Config{DisableAutoCompact: true}, base)
				if indexed {
					if err := l.BuildIndex(rtree.DefaultBuildOptions()); err != nil {
						t.Fatal(err)
					}
				}
				want := BuildFull
				if !c.cold {
					checkPrepared(t, what+": base", l.Current())
					want = BuildMerge
				}
				if _, err := l.Append(delta); err != nil {
					t.Fatal(err)
				}
				if c.late {
					if _, err := l.Append([]geom.Record{tall(9001)}); err != nil {
						t.Fatal(err)
					}
				}
				if b := checkPrepared(t, what+": after the append", l.Current()); b != want {
					t.Fatalf("%s: Prepared after the append = %q, want %q", what, b, want)
				}
				if _, err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				if b := checkPrepared(t, what+": compacted", l.Current()); b != BuildNone {
					t.Fatalf("%s: Prepared after compaction = %q, want none", what, b)
				}
			}
		}
	}
}

// TestPreparedConcurrentBuildsOnce has many readers ask one cold
// version for its run at once while a writer keeps appending: exactly
// one of them builds it, all get the same slice, and (under -race) no
// one writes to what the others read.
func TestPreparedConcurrentBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := newLog(t, Config{CompactMin: 500}, genRecords(rng, 3000, 0))
	v := l.Current()
	batches := make([][]geom.Record, 20)
	for i := range batches {
		batches[i] = genRecords(rng, 100, 10000+100*i)
	}

	const readers = 8
	runs := make([]geom.Run, readers)
	builds := make([]Build, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if runs[i], builds[i], err = v.Prepared(); err != nil {
				t.Error(err)
				return
			}
			var sum uint64 // read the whole shared run
			for _, r := range runs[i].Recs {
				sum += uint64(r.ID)
			}
			_ = sum
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if _, err := l.Append(b); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := l.Current().Prepared(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	full := 0
	for i := range runs {
		if builds[i] == BuildFull {
			full++
		}
		if len(runs[i].Recs) != 3000 || &runs[i].Recs[0] != &runs[0].Recs[0] {
			t.Fatalf("reader %d got its own run (len %d)", i, len(runs[i].Recs))
		}
	}
	if full != 1 {
		t.Fatalf("%d readers built the cold run, want exactly 1 (builds %q)", full, builds)
	}
	checkPrepared(t, "after storm", l.Current())
}
