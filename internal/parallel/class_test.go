package parallel

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"unijoin/internal/geom"
	"unijoin/internal/jointest"
)

// splitByClass is the class rule written out over one stripe's records
// in input order: A when the record's left edge, clipped to the
// window's, lies in the stripe's owner range — the cut's, clamped to
// own — B when it lies left of a range that is not empty, neither
// otherwise. Each class is returned in sweep order.
func splitByClass(p *Partitioner, own *geom.Interval, winXLo geom.Coord, i int, recs []geom.Record) side {
	lo, hi := p.OwnerRange(i)
	if own != nil {
		lo, hi = max(lo, own.Lo), min(hi, own.Hi)
	}
	var s side
	for _, r := range recs {
		switch x := max(r.Rect.XLo, winXLo); {
		case x >= lo && x < hi:
			s.A = append(s.A, r)
		case x < lo && lo < hi:
			s.B = append(s.B, r)
		}
	}
	sortByLowerY(s.A)
	sortByLowerY(s.B)
	return s
}

// TestClassRuleIsTheJoin: with every stripe sweeping only its A×A, A×B
// and B×A pairs, and with no ownership test left in the kernel, Join
// and Slot.Join give the reference's pairs, counted and emitted, on
// every shape of the shared generator, at stripes pinned
// to the cuts the shapes were drawn over (so the on-cuts records' left
// edges sit exactly on stripe boundaries; the pinned layout's
// boundaries are asserted to be the cuts, windowed or not) and at the
// engine's own count, with and without an Own interval, and under windows whose
// left edge lies inside a stripe, exactly on a boundary, left of all
// the data and right of all of it, and one of zero width.
func TestClassRuleIsTheJoin(t *testing.T) {
	cuts := []geom.Coord{125, 250, 375, 500, 625, 750, 875}
	pinned := [][]geom.Coord{append([]geom.Coord{universe.XLo}, cuts...)}
	inf := geom.Coord(math.Inf(1))
	windows := map[string]*geom.Rect{
		"none":               nil,
		"edge-inside-stripe": {XLo: 300, YLo: 50, XHi: 720, YHi: 950},
		"edge-on-a-boundary": {XLo: 500, YLo: 0, XHi: 1000, YHi: 1000},
		"left-of-the-data":   {XLo: -400, YLo: -400, XHi: 1400, YHi: 1400},
		"right-of-the-data":  {XLo: 1200, YLo: 0, XHi: 1300, YHi: 1000},
		"zero-width":         {XLo: 375, YLo: 100, XHi: 375, YHi: 900},
	}
	owns := map[string]*geom.Interval{
		"unowned":          nil,
		"middle-on-cuts":   {Lo: 250, Hi: 625},
		"inside-a-stripe":  {Lo: 300, Hi: 340},
		"left-half-open":   {Lo: -inf, Hi: 500},
		"right-half-open":  {Lo: 500, Hi: inf},
		"unbounded-itself": {Lo: -inf, Hi: inf},
	}
	for _, sh := range jointest.Shapes {
		in := sh.Gen(3, universe, cuts)
		for wname, w := range windows {
			for oname, own := range owns {
				want := jointest.Join(in.A, in.B, w)
				if own != nil {
					want = jointest.Owned(in.A, in.B, w, own.Lo, own.Hi)
				}
				for _, o := range []Options{{Partitions: len(cuts) + 1, SortedSamples: pinned}, {}} {
					for _, workers := range []int{1, 3} {
						o.Universe, o.Window, o.Own, o.Workers = universe, w, own, workers
						what := fmt.Sprintf("%s window=%s own=%s pinned=%v workers=%d", sh.Name, wname, oname, o.SortedSamples != nil, workers)
						rep, seq := pairSequence(t, in.A, in.B, o)
						jointest.CheckJoin(t, what, in.A, in.B, want, jointest.BagOf(seq))
						if rep.Comparisons < rep.Pairs {
							t.Fatalf("%s: the kernel reported %d pairs from %d comparisons", what, rep.Pairs, rep.Comparisons)
						}
						if o.SortedSamples != nil {
							if got := layoutBoundaries(t, in.A, in.B, o); !slices.Equal(got, cuts) {
								t.Fatalf("%s: the pinned layout's boundaries are %v, want the cuts %v", what, got, cuts)
							}
						}
						counted, err := Join(context.Background(), in.A, in.B, o)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(countersOf(counted), countersOf(rep)) {
							t.Fatalf("%s: counting reports\n%+v\nemitting\n%+v", what, countersOf(counted), countersOf(rep))
						}
						if w != nil {
							continue
						}
						var s Slot
						for range 2 {
							srep, _, sseq := slotSequence(t, &s, 1, in.A, in.B, o)
							if !slices.Equal(sseq, seq) {
								t.Fatalf("%s: Slot.Join emits another sequence than Join (%d vs %d pairs)", what, len(sseq), len(seq))
							}
							srep.Reused = false
							if !reflect.DeepEqual(countersOf(srep), countersOf(rep)) {
								t.Fatalf("%s: Slot.Join reports\n%+v\nJoin\n%+v", what, countersOf(srep), countersOf(rep))
							}
						}
					}
				}
			}
		}
	}
}
