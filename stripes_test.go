package unijoin

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"unijoin/internal/jointest"
	"unijoin/internal/parallel"
)

// sequenceDigest is the SHA-256 of a pair sequence, order included.
func sequenceDigest(seq []Pair) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, p := range seq {
		binary.LittleEndian.PutUint32(b[:4], p.Left)
		binary.LittleEndian.PutUint32(b[4:], p.Right)
		h.Write(b[:])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// engineCounters is a parallel report less what a rerun may change:
// wall times, the worker split, and whether the layout was reused.
func engineCounters(r parallel.Report) parallel.Report {
	r.Wall, r.PartitionWall, r.SweepWall, r.PerWorker, r.Reused, r.Workers = 0, 0, 0, nil, false, 0
	return r
}

// TestRepeatedJoinReusesItsStripes: the first unwindowed join of two
// pinned versions partitions them and leaves the stripe layout on the
// left version; the joins after it, at any worker count, sweep that
// layout and emit the same pair sequence (by SHA-256) with the same
// counters. Each change of the Owned interval or of the stripe count
// builds afresh — consecutive cases differ in exactly one of them — as
// does the first join after an append and after a compaction. Every
// building join's answer is checked against the brute-force reference.
func TestRepeatedJoinReusesItsStripes(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 71, 7000, 4000)
	ctx := context.Background()
	mid := [2]Coord{300, 700}
	run := func(what string, workers int, owned *[2]Coord, partitions int, wantReused bool) (*Results, [32]byte) {
		t.Helper()
		q := ws.Query(a, b).Algorithm(AlgParallel).Parallelism(workers).Partitions(partitions)
		if owned != nil {
			q.Owned(owned[0], owned[1])
		}
		res, err := q.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel.Reused != wantReused {
			t.Fatalf("%s at %d workers: Reused %v, want %v", what, workers, res.Parallel.Reused, wantReused)
		}
		if !wantReused { // the reusing joins are held to this one's digest
			l, _ := res.Left.v.Prepared()
			r, _ := res.Right.v.Prepared()
			var want jointest.Bag[Pair]
			if owned == nil {
				want = jointest.Join(l.Recs, r.Recs, nil)
			} else {
				want = jointest.Owned(l.Recs, r.Recs, nil, owned[0], owned[1])
			}
			jointest.CheckJoin(t, what, l.Recs, r.Recs, want, jointest.BagOf(res.PairSlice()))
		}
		return res, sequenceDigest(res.PairSlice())
	}
	check := func(what string, owned *[2]Coord, partitions int) {
		t.Helper()
		first, digest := run(what, 1, owned, partitions, false)
		if a.Pin().StripeBytes() <= 0 {
			t.Fatalf("%s: the left version holds no stripes after its first join", what)
		}
		for _, workers := range []int{2, 1} {
			res, d := run(what, workers, owned, partitions, true)
			if d != digest {
				t.Fatalf("%s: the join at %d workers that reused the stripes emitted another pair sequence", what, workers)
			}
			if !reflect.DeepEqual(engineCounters(*res.Parallel), engineCounters(*first.Parallel)) {
				t.Fatalf("%s: the reusing join reports %+v, the building one %+v", what, engineCounters(*res.Parallel), engineCounters(*first.Parallel))
			}
		}
	}
	for _, c := range []struct {
		owned      *[2]Coord
		partitions int
	}{{nil, 0}, {&mid, 0}, {&mid, 9}, {nil, 9}, {nil, 0}} {
		check(fmt.Sprintf("owned=%v partitions=%d", c.owned, c.partitions), c.owned, c.partitions)
	}
	u := NewRect(0, 0, 1000, 1000)
	if _, err := b.Append(appendDelta(72, 200, 1<<20, u)); err != nil {
		t.Fatal(err)
	}
	check("after an append", &mid, 0)
	if _, err := a.Append(appendDelta(73, 300, 1<<21, u)); err != nil {
		t.Fatal(err)
	}
	if compacted, err := a.Compact(); err != nil || !compacted {
		t.Fatalf("compaction: %v, %v", compacted, err)
	}
	check("after a compaction", nil, 0)
}

// TestSetUniverseIsAStripeKey: the universe anchors the stripe
// boundaries, so a join after SetUniverse must not sweep the layout a
// join under the old universe left: it builds again, and answers what
// a workspace that had the new universe all along answers.
func TestSetUniverseIsAStripeKey(t *testing.T) {
	ctx := context.Background()
	count := func(ws *Workspace, a, b *Relation, wantReused bool) *Results {
		t.Helper()
		res, err := ws.Query(a, b).Algorithm(AlgParallel).Parallelism(1).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel.Reused != wantReused {
			t.Fatalf("Reused %v, want %v", res.Parallel.Reused, wantReused)
		}
		return res
	}
	ws, a, b := clusteredWorkspace(t, 75, 6000, 3000)
	count(ws, a, b, false)
	count(ws, a, b, true)
	wide := NewRect(-1000, -1000, 3000, 3000)
	ws.SetUniverse(wide)
	got := count(ws, a, b, false)
	count(ws, a, b, true)

	ref, ra, rb := clusteredWorkspace(t, 75, 6000, 3000)
	ref.SetUniverse(wide)
	want := count(ref, ra, rb, false)
	if got.Parallel.Partitions != want.Parallel.Partitions ||
		sequenceDigest(got.PairSlice()) != sequenceDigest(want.PairSlice()) {
		t.Fatalf("after SetUniverse: %d pairs over %d stripes; a workspace born with that universe: %d over %d",
			got.Count(), got.Parallel.Partitions, want.Count(), want.Parallel.Partitions)
	}
}

// TestConcurrentFirstJoinsBuildOneLayout: eight joins that find a
// catalog's version pair without stripes, all at once, partition it
// once between them.
func TestConcurrentFirstJoinsBuildOneLayout(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 77, 6000, 4000)
	NewCatalogOn(ws)
	const queries = 8
	results := make([]*Results, queries)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ws.Query(a, b).Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	builds := 0
	for i, res := range results {
		if !res.Parallel.Reused {
			builds++
		}
		if res.Count() == 0 || sequenceDigest(res.PairSlice()) != sequenceDigest(results[0].PairSlice()) {
			t.Fatalf("join %d: %d pairs, differing from join 0's %d", i, res.Count(), results[0].Count())
		}
	}
	if builds != 1 {
		t.Fatalf("eight first joins built %d stripe layouts, want 1", builds)
	}
}

// canceledAt is a context whose Err reports context.Canceled from its
// n-th call on: a cancellation that lands at a chosen poll.
type canceledAt struct {
	context.Context
	calls, n atomic.Int64
}

func (c *canceledAt) Err() error {
	if c.calls.Add(1) >= c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestCanceledJoinLeavesNoStripes cancels a fresh pair's first join at
// each of its context polls in turn, up to the first that lands after
// the layout is built. A join canceled before then leaves the left
// version without stripes, and the next join builds them and answers in
// full; one canceled in its sweep leaves the finished layout, which the
// next join reuses.
func TestCanceledJoinLeavesNoStripes(t *testing.T) {
	inBuild := 0
	var want int64
	for n := int64(1); ; n++ {
		ws, a, b := clusteredWorkspace(t, 79, 12000, 3000)
		NewCatalogOn(ws)
		ctx := &canceledAt{Context: context.Background()}
		ctx.n.Store(n)
		if _, err := ws.Query(a, b).CountOnly().Run(ctx); !errors.Is(err, ErrCanceled) {
			t.Fatalf("poll %d: %v, want a cancellation", n, err)
		}
		kept := a.Pin().StripeBytes() > 0
		res, err := ws.Query(a, b).CountOnly().Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if kept != res.Parallel.Reused {
			t.Fatalf("poll %d: the canceled join kept stripes=%v, and the next join reused them=%v", n, kept, res.Parallel.Reused)
		}
		if n == 1 {
			l, _ := res.Left.v.Prepared()
			r, _ := res.Right.v.Prepared()
			want = jointest.Join(l.Recs, r.Recs, nil).Len()
		}
		if res.Count() != want {
			t.Fatalf("poll %d: the join after the canceled one counts %d pairs, want %d", n, res.Count(), want)
		}
		if kept {
			break
		}
		inBuild++
	}
	if inBuild < 2 {
		t.Fatalf("only %d polls cancel the build: the test no longer reaches into it", inBuild)
	}
}
