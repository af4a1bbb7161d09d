package parallel

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/jointest"
	"unijoin/internal/pairbuf"
)

// pairDigest is the SHA-256 of a pair sequence, order included.
func pairDigest(seq []geom.Pair) [32]byte {
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

// slotSequence is pairSequence through a slot: the report, whether the
// call built the layout, and the pairs in emitted order.
func slotSequence(t *testing.T, s *Slot, partner uint64, a, b []geom.Record, o Options) (Report, bool, []geom.Pair) {
	t.Helper()
	var seq []geom.Pair
	o.EmitBatch = func(ps []geom.Pair) { seq = append(seq, ps...) }
	rep, err := s.Join(context.Background(), partner, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != int64(len(seq)) {
		t.Fatalf("the report counts %d pairs, %d were emitted", rep.Pairs, len(seq))
	}
	return rep, !rep.Reused, seq
}

// TestSlotJoinIsJoin: a join through a slot — the one that builds the
// layout and every one that reuses it — reports exactly what Join
// reports (stripe count, every counter) and emits exactly Join's pair
// sequence, with and without an Own interval, under the engine's stripe
// count and an override, at one and two workers; and the layout it
// keeps is plain memory, not a pooled loan.
func TestSlotJoinIsJoin(t *testing.T) {
	a, b := clustered(43, 6000, 4000) // above distSerialCutoff
	slices.SortFunc(a, geom.ByLowerY)
	slices.SortFunc(b, geom.ByLowerY)
	samples := [][]geom.Coord{SortedCenterSample(a), SortedCenterSample(b)}
	owns := map[string]*geom.Interval{"unowned": nil, "owned": {Lo: 300, Hi: 650}}
	for ownName, own := range owns {
		for _, partitions := range []int{0, 11} {
			for _, workers := range []int{1, 2} {
				what := fmt.Sprintf("%s partitions=%d workers=%d", ownName, partitions, workers)
				o := Options{Universe: universe, Workers: workers, Partitions: partitions, Own: own, SortedSamples: samples}
				want, wantSeq := pairSequence(t, a, b, o)
				if len(wantSeq) == 0 {
					t.Fatalf("%s: no pairs", what)
				}
				var s Slot
				for i, wantBuilt := range []bool{true, false, false} {
					rep, built, seq := slotSequence(t, &s, 1, a, b, o)
					if built != wantBuilt {
						t.Fatalf("%s: join %d built=%v, want %v", what, i, built, wantBuilt)
					}
					if pairDigest(seq) != pairDigest(wantSeq) {
						t.Fatalf("%s: join %d emitted another pair sequence (%d vs %d pairs)", what, i, len(seq), len(wantSeq))
					}
					rep.Reused = false
					if !reflect.DeepEqual(countersOf(rep), countersOf(want)) {
						t.Fatalf("%s: join %d reports\n%+v\nwant\n%+v", what, i, countersOf(rep), countersOf(want))
					}
				}
				var held int64 // placements in a class: what the kernel sweeps
				for _, ws := range want.PerWorker {
					held += ws.Records
				}
				if held == 0 || s.Bytes() < held*geom.RecordSize {
					t.Fatalf("%s: the slot holds %d bytes for %d placements", what, s.Bytes(), held)
				}
				if n := pairbuf.Outstanding(); n != 0 {
					t.Fatalf("%s: %d pooled buffers on loan while the slot holds its layout", what, n)
				}
			}
		}
	}
}

// TestSlotKey: a slot's layout depends on the partner, the universe,
// the Own interval and the stripe count, so a join that changes any of
// them must build its own — and give Join's answer under its own
// options, never the held layout's. A slot that left one of them out of
// its key would hand these joins a layout cut, or tagged, for another.
func TestSlotKey(t *testing.T) {
	a, b := clustered(47, 5000, 3000)
	c, _ := clustered(48, 4000, 10)
	mid := geom.Interval{Lo: 250, Hi: 600}
	left := geom.Interval{Lo: geom.Coord(math.Inf(-1)), Hi: 250}
	type join struct {
		what      string
		partner   uint64
		right     []geom.Record
		o         Options
		wantBuilt bool
	}
	base := Options{Universe: universe, Workers: 1}
	with := func(f func(*Options)) Options { o := base; f(&o); return o }
	var s Slot
	for _, j := range []join{
		{"first", 1, b, base, true},
		{"again", 1, b, base, false},
		{"another partner", 2, c, base, true},
		{"back to the first partner", 1, b, base, true},
		{"owned", 1, b, with(func(o *Options) { o.Own = &mid }), true},
		{"owned again", 1, b, with(func(o *Options) { o.Own = &geom.Interval{Lo: 250, Hi: 600} }), false},
		{"another owned interval", 1, b, with(func(o *Options) { o.Own = &left }), true},
		{"unowned", 1, b, base, true},
		{"another universe", 1, b, with(func(o *Options) { o.Universe = geom.NewRect(-500, -500, 1500, 1500) }), true},
		{"an override", 1, b, with(func(o *Options) { o.Partitions = 5 }), true},
		{"the override at two workers", 1, b, with(func(o *Options) { o.Partitions = 5; o.Workers = 2 }), false},
		{"more workers than the override", 1, b, with(func(o *Options) { o.Partitions = 5; o.Workers = 7 }), true},
		{"the engine's count", 1, b, base, true},
		{"the engine's count at two workers", 1, b, with(func(o *Options) { o.Workers = 2 }), false},
		// An override equal to the worker count asks for the same count
		// the engine's choice is floored at, but the engine cuts more
		// stripes than that here: the layout the override left is not it.
		{"an override at the worker count", 1, b, with(func(o *Options) { o.Partitions = 2; o.Workers = 2 }), true},
		{"the engine's count after it", 1, b, with(func(o *Options) { o.Workers = 2 }), true},
	} {
		want, wantSeq := pairSequence(t, a, j.right, j.o)
		rep, built, seq := slotSequence(t, &s, j.partner, a, j.right, j.o)
		if built != j.wantBuilt {
			t.Fatalf("%s: built=%v, want %v", j.what, built, j.wantBuilt)
		}
		if !slices.Equal(seq, wantSeq) || rep.Partitions != want.Partitions {
			t.Fatalf("%s: %d pairs over %d stripes, Join gives %d over %d", j.what, len(seq), rep.Partitions, len(wantSeq), want.Partitions)
		}
	}
	// Far more workers than the engine would cut stripes for: the
	// worker count floors K, so it is the stripe count that differs.
	tiny, tinyB := a[:40], b[:30]
	var t2 Slot
	for _, j := range []struct {
		workers   int
		wantBuilt bool
	}{{1, true}, {1, false}, {6, true}, {6, false}, {1, true}} {
		o := Options{Universe: universe, Workers: j.workers}
		want, wantSeq := pairSequence(t, tiny, tinyB, o)
		rep, built, seq := slotSequence(t, &t2, 1, tiny, tinyB, o)
		if built != j.wantBuilt || rep.Partitions != want.Partitions || !slices.Equal(seq, wantSeq) {
			t.Fatalf("tiny inputs at %d workers: built=%v (want %v), K=%d (Join's %d), %d pairs (Join's %d)",
				j.workers, built, j.wantBuilt, rep.Partitions, want.Partitions, len(seq), len(wantSeq))
		}
	}
}

// TestSlotConcurrentFirstJoinsBuildOnce: eight joins that find the slot
// empty at once build one layout between them, and all eight answer
// Join's pair sequence.
func TestSlotConcurrentFirstJoinsBuildOnce(t *testing.T) {
	a, b := clustered(53, 6000, 4000)
	o := Options{Universe: universe, Workers: 2}
	_, wantSeq := pairSequence(t, a, b, o)
	var s Slot
	var builds atomic.Int64
	var wg sync.WaitGroup
	seqs := make([][]geom.Pair, 8)
	errs := make([]error, 8)
	for g := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := o
			o.EmitBatch = func(batch []geom.Pair) { seqs[g] = append(seqs[g], batch...) }
			rep, err := s.Join(context.Background(), 1, a, b, o)
			errs[g] = err
			if err == nil && !rep.Reused {
				builds.Add(1)
			}
		}()
	}
	wg.Wait()
	for g := range seqs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !slices.Equal(seqs[g], wantSeq) {
			t.Fatalf("join %d: %d pairs, want Join's %d in its order", g, len(seqs[g]), len(wantSeq))
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("eight first joins built %d layouts, want 1", n)
	}
}

// failingCtx is a context whose Err starts returning context.Canceled
// at its n-th call: a cancellation that lands at a chosen poll.
type failingCtx struct {
	context.Context
	calls, n atomic.Int64
}

func cancelAtPoll(n int64) *failingCtx {
	c := &failingCtx{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *failingCtx) Err() error {
	if c.calls.Add(1) >= c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestSlotCanceledBuildLeavesNothing cancels a slot's first join at
// each of its context polls in turn, from the one before the build to
// the first two of the sweep's. A join canceled before its layout was built
// leaves the slot empty, and the next one builds; a join canceled in
// its sweep, after the build, leaves the whole layout, and the next one
// reuses it. Either way the next join answers in full.
func TestSlotCanceledBuildLeavesNothing(t *testing.T) {
	a, b := clustered(59, 17000, 1500) // three distribution polls on a
	o := Options{Universe: universe, Workers: 1}
	_, want := joinedPairs(t, a, b, o)
	inBuild, inSweep := 0, 0
	for n := int64(1); inSweep < 2; n++ {
		var s Slot
		if _, err := s.Join(cancelAtPoll(n), 1, a, b, o); err != context.Canceled {
			t.Fatalf("poll %d: %v", n, err)
		}
		// The slot holds a layout exactly when the cancel landed after
		// the build; until then it holds nothing, not even an entry.
		kept := s.Bytes() > 0
		if kept {
			inSweep++
		} else if inBuild++; s.cur != nil {
			t.Fatalf("poll %d: a canceled build left an entry in the slot", n)
		}
		got := jointest.Bag[geom.Pair]{}
		oc := o
		oc.EmitBatch = func(ps []geom.Pair) { got.Union(jointest.BagOf(ps)) }
		rep, err := s.Join(context.Background(), 1, a, b, oc)
		if err != nil || rep.Reused != kept {
			t.Fatalf("poll %d (layout kept: %v): the join after it reused=%v err=%v", n, kept, rep.Reused, err)
		}
		jointest.CheckJoin(t, fmt.Sprintf("after a cancel at poll %d", n), a, b, want, got)
	}
	if inBuild < 3 {
		t.Fatalf("only %d polls cancel the build: the test no longer reaches into it", inBuild)
	}
}

// TestSlotRefusesWindows: a window changes the layout, and a slot does
// not key it.
func TestSlotRefusesWindows(t *testing.T) {
	a, b := clustered(61, 100, 100)
	w := geom.NewRect(0, 0, 10, 10)
	var s Slot
	if _, err := s.Join(context.Background(), 1, a, b, Options{Universe: universe, Window: &w}); err == nil {
		t.Fatal("a windowed join through a slot was accepted")
	}
}
