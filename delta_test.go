package unijoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unijoin/internal/ingest"
	"unijoin/internal/iosim"
	"unijoin/internal/jointest"
)

// A live indexed relation is a packed tree over its base plus a
// y-sorted run over its delta. The tests here hold every consumer of
// that mixed form to the answer of the plain record set.

// mixedKinds are the data kinds of these tests, by the jointest shape
// that generates each.
var mixedKinds = []struct{ name, shape string }{
	{"random", "uniform"}, {"clustered", "clustered"}, {"tall", "tall"},
	{"zero-extent", "zero-extent"}, {"duplicates", "duplicates"},
}

// draw returns n records of a jointest shape over region with the IDs
// from..from+n-1.
func draw(shape string, seed int64, n int, region Rect, from int) []Record {
	var out []Record
	for s := seed; len(out) < n; s += 1000 {
		out = append(out, jointest.ShapeNamed(shape).Gen(s, region, nil).A...)
	}
	return renumber(out[:n], from)
}

// deltaShape says how many records of each side arrive by Append after
// the index is built, and whether they land outside the base's MBR.
type deltaShape struct {
	name     string
	da, db   int
	outlying bool
}

var deltaShapes = []deltaShape{
	{name: "empty"},
	{name: "one record", da: 1},
	{name: "under the threshold", da: ingest.DefaultCompactMin - 1, db: 17},
	{name: "left only", da: 180},
	{name: "both sides", da: 180, db: 150},
	{name: "outside the base MBR", da: 120, db: 90, outlying: true},
}

// renumber gives recs the IDs from..from+len-1.
func renumber(recs []Record, from int) []Record {
	for i := range recs {
		recs[i].ID = uint32(from + i)
	}
	return recs
}

// liveRelation loads base, indexes it when index is set and appends
// delta in three batches, checking that delta is now the relation's
// delta.
func liveRelation(t *testing.T, ws *Workspace, name string, base, delta []Record, index bool) *Relation {
	t.Helper()
	rel, err := ws.AddNamedRelation(name, base)
	if err != nil {
		t.Fatal(err)
	}
	if index {
		if err := rel.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	for rest := delta; len(rest) > 0; {
		n := min(len(rest), len(delta)/3+1)
		if _, err := rel.Append(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if p := rel.Pin(); p.DeltaRecords() != int64(len(delta)) || p.Len() != int64(len(base)+len(delta)) {
		t.Fatalf("%s: %d records with a delta of %d, want %d and %d",
			name, p.Len(), p.DeltaRecords(), len(base)+len(delta), len(delta))
	}
	return rel
}

// TestMixedFormExactness: for every data kind and delta shape, every
// algorithm — on the simulated disk and, where it has one, in its
// resident form (see engines); windowed and not, count-only, collected,
// Emit and EmitBatch — and the 3-way join report exactly the reference's
// answer over base ∪ delta.
func TestMixedFormExactness(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	far := NewRect(1200, 1200, 1500, 1500) // where outlying deltas land
	window := NewRect(180, 240, 620, 700)
	for _, kind := range mixedKinds {
		for si, shape := range deltaShapes {
			t.Run(kind.name+"/"+shape.name, func(t *testing.T) {
				t.Parallel() // each case builds a workspace of its own
				seed := int64(100 * si)
				region := u
				if shape.outlying {
					region = far
				}
				baseA, baseB, baseC := draw(kind.shape, seed+1, 300, u, 0), draw(kind.shape, seed+2, 200, u, 0), draw(kind.shape, seed+3, 40, u, 0)
				deltaA := draw(kind.shape, seed+4, shape.da, region, len(baseA))
				deltaB := draw(kind.shape, seed+5, shape.db, region, len(baseB))
				deltaC := draw(kind.shape, seed+6, shape.db/3, region, len(baseC))
				ws := NewWorkspace()
				ws.SetUniverse(u.Union(far))
				a := liveRelation(t, ws, "a", baseA, deltaA, true)
				b := liveRelation(t, ws, "b", baseB, deltaB, true)
				c := liveRelation(t, ws, "c", baseC, deltaC, true)
				allA, allB, allC := append(baseA, deltaA...), append(baseB, deltaB...), append(baseC, deltaC...)

				for _, win := range []*Rect{nil, &window, &far} {
					want := jointest.Join(allA, allB, win)
					for _, alg := range queryAlgorithms {
						for _, e := range engines(ws, alg) {
							checkEmitModes(t, fmt.Sprintf("%v (%s) window %v", alg, e.name, win), func() *Query {
								q := e.ws.Query(a, b).Algorithm(alg).Partitions(5)
								if win != nil {
									q.Window(*win)
								}
								return q
							}, allA, allB, want)
						}
					}
				}

				got := jointest.Bag[jointest.Tuple]{}
				res, err := ws.MultiwayJoin(ctx, []*Relation{a, b, c}, func(ids []ID) {
					got.Add(jointest.Tuple{ids[0], ids[1], ids[2]})
				})
				if err != nil {
					t.Fatal(err)
				}
				jointest.Check(t, "3-way join", jointest.Multiway(nil, allA, allB, allC), got, nil)
				if res.Tuples != got.Len() {
					t.Fatalf("3-way join: Tuples says %d, %d were emitted", res.Tuples, got.Len())
				}
			})
		}
	}
}

// TestMixedFormWindowQuery: a window query equals the reference on
// every form of one record set — a tree beside a delta run, a bare log
// with the same delta, the tree compacted over all of it — for windows
// over both halves, windows that only delta records touch, and a run
// whose tallest record lies far below the window; a view pinned before
// an append never sees it. Every form answers from its prepared run: a
// canceled query reads no page, not even to build the run, and once
// the first query has built it no query reads a page again.
func TestMixedFormWindowQuery(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	far := NewRect(1200, 1200, 1500, 1500)
	check := func(t *testing.T, what string, query func(context.Context, Rect, func(Record)) (int64, error), recs []Record, win Rect) {
		t.Helper()
		got := jointest.Bag[Record]{}
		n, err := query(ctx, win, got.Add)
		if err != nil {
			t.Fatal(err)
		}
		jointest.Check(t, fmt.Sprintf("window %v %s", win, what), jointest.Window(recs, win), got, nil)
		if n != got.Len() {
			t.Fatalf("window %v %s: counted %d records, emitted %d", win, what, n, got.Len())
		}
	}

	for _, kind := range mixedKinds {
		t.Run(kind.name, func(t *testing.T) {
			base := draw(kind.shape, 1, 900, u, 0)
			delta := draw(kind.shape, 2, 400, u, len(base))
			delta = append(delta, draw(kind.shape, 3, 100, far, len(base)+len(delta))...)
			// Two records far taller than the rest, low in the universe:
			// one reaches up into the windows below, one stops short, and
			// either way the run's extent bound now spans most of it.
			delta = append(delta,
				Record{ID: uint32(len(base) + len(delta)), Rect: NewRect(400, 5, 420, 960)},
				Record{ID: uint32(len(base) + len(delta) + 1), Rect: NewRect(600, 2, 640, 700)})
			all := append(slices.Clone(base), delta...)
			late := draw(kind.shape, 5, 150, u, len(all))
			grown := append(slices.Clone(all), late...)

			rng := rand.New(rand.NewSource(4))
			windows := []Rect{
				u, u.Union(far),
				far,                             // only delta records
				NewRect(1250, 1250, 1300, 1300), // inside the outlying delta
				NewRect(380, 900, 660, 950),     // high above the tall records' YLo
				NewRect(590, 720, 650, 730),     // just past the shorter one's top
				NewRect(-50, -50, -10, -10),     // nothing
			}
			for i := 0; i < 40; i++ {
				x, y := Coord(rng.Float64()*1400), Coord(rng.Float64()*1400)
				windows = append(windows, NewRect(x, y, x+Coord(rng.Float64()*200), y+Coord(rng.Float64()*200)))
			}

			for _, form := range []string{"indexed with a delta", "unindexed with a delta", "indexed after Compact"} {
				t.Run(form, func(t *testing.T) {
					ws := NewWorkspace()
					ws.SetUniverse(u.Union(far))
					rel := liveRelation(t, ws, kind.name, base, delta, form != "unindexed with a delta")
					if form == "indexed after Compact" {
						if _, err := rel.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					readNothing := func(what string, before iosim.Counters) {
						t.Helper()
						if moved := ws.Store().Counters().Sub(before); moved.Total() != 0 {
							t.Fatalf("%s: %d page accesses, want none", what, moved.Total())
						}
					}

					canceled, cancel := context.WithCancel(ctx)
					cancel()
					before := ws.Store().Counters()
					if _, err := rel.WindowQuery(canceled, u, nil); !errors.Is(err, ErrCanceled) {
						t.Fatalf("canceled window query: %v, want ErrCanceled", err)
					}
					readNothing("canceled window query", before)

					pinned := rel.Pin()
					check(t, "", rel.WindowQuery, all, windows[0])
					before = ws.Store().Counters()
					for _, win := range windows[1:] {
						check(t, "", rel.WindowQuery, all, win)
					}
					readNothing("warm window queries", before)

					// One more batch: the live relation sees it, the pinned
					// view keeps answering for its own epoch.
					if _, err := rel.Append(late); err != nil {
						t.Fatal(err)
					}
					before = ws.Store().Counters()
					for _, win := range windows {
						check(t, "on the pinned view", pinned.WindowQuery, all, win)
						check(t, "after the append", rel.WindowQuery, grown, win)
					}
					readNothing("window queries after the append", before)
				})
			}
		})
	}
}
