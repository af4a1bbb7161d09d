package unijoin

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/ingest"
)

// A live indexed relation is a packed tree over its base plus a
// y-sorted run over its delta. The tests here hold every consumer of
// that mixed form to the answer of the plain record set.

// mixedData generates one data shape over u, IDs 0..n-1.
var mixedData = map[string]func(seed int64, n int, u Rect) []Record{
	"random": func(seed int64, n int, u Rect) []Record { return datagen.Uniform(seed, n, u, 40) },
	"clustered": func(seed int64, n int, u Rect) []Record {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, n)
		for i := range recs {
			cx, cy := 150+350*float64(i%3), 200+300*float64(i%2)
			x, y := cx+rng.NormFloat64()*30, cy+rng.NormFloat64()*30
			recs[i] = Record{ID: uint32(i), Rect: NewRect(Coord(x), Coord(y),
				Coord(x+rng.Float64()*25), Coord(y+rng.Float64()*25))}
		}
		return recs
	},
	"tall": func(seed int64, n int, u Rect) []Record { return datagen.Tall(seed, n, u) },
	"zero-extent": func(seed int64, n int, u Rect) []Record {
		// Points and degenerate segments on a coarse lattice, so that
		// they do meet each other.
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, n)
		for i := range recs {
			x, y := Coord(20*rng.Intn(50)), Coord(20*rng.Intn(50))
			r := NewRect(x, y, x, y)
			switch rng.Intn(3) {
			case 1:
				r.XHi += 40
			case 2:
				r.YHi += 40
			}
			recs[i] = Record{ID: uint32(i), Rect: r}
		}
		return recs
	},
	"duplicates": func(seed int64, n int, u Rect) []Record {
		// A handful of distinct rectangles, each repeated many times
		// under different IDs: equal YLo everywhere a merge can tie.
		distinct := datagen.Uniform(seed, 12, u, 200)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{ID: uint32(i), Rect: distinct[i%len(distinct)].Rect}
		}
		return recs
	},
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

// liveRelation loads base, indexes it and appends delta in three
// batches, checking that the relation really is in mixed form.
func liveRelation(t *testing.T, ws *Workspace, name string, base, delta []Record) *Relation {
	t.Helper()
	rel, err := ws.AddNamedRelation(name, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.BuildIndex(); err != nil {
		t.Fatal(err)
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

// checkPairs requires got to be exactly want, each pair once.
func checkPairs(t *testing.T, what string, got []Pair, want map[Pair]bool) {
	t.Helper()
	seen := make(map[Pair]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("%s: pair %v reported twice", what, p)
		}
		if !want[p] {
			t.Fatalf("%s: pair %v is not in the brute-force answer", what, p)
		}
		seen[p] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: %d pairs, brute force finds %d", what, len(seen), len(want))
	}
}

// TestMixedFormExactness: for every data shape and delta shape, every
// algorithm — windowed and not, count-only, Emit and EmitBatch — and
// the 3-way join report exactly the brute-force pair set over base ∪
// delta, each pair once.
func TestMixedFormExactness(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	far := NewRect(1200, 1200, 1500, 1500) // where outlying deltas land
	window := NewRect(180, 240, 620, 700)
	for _, kind := range []string{"random", "clustered", "tall", "zero-extent", "duplicates"} {
		gen := mixedData[kind]
		for si, shape := range deltaShapes {
			t.Run(kind+"/"+shape.name, func(t *testing.T) {
				seed := int64(100 * si)
				region := u
				if shape.outlying {
					region = far
				}
				baseA, baseB, baseC := gen(seed+1, 420, u), gen(seed+2, 330, u), gen(seed+3, 60, u)
				deltaA := renumber(gen(seed+4, shape.da, region), len(baseA))
				deltaB := renumber(gen(seed+5, shape.db, region), len(baseB))
				deltaC := renumber(gen(seed+6, shape.db/3, region), len(baseC))
				ws := NewWorkspace()
				ws.SetUniverse(u.Union(far))
				a := liveRelation(t, ws, "a", baseA, deltaA)
				b := liveRelation(t, ws, "b", baseB, deltaB)
				c := liveRelation(t, ws, "c", baseC, deltaC)
				allA, allB, allC := append(baseA, deltaA...), append(baseB, deltaB...), append(baseC, deltaC...)

				for _, win := range []*Rect{nil, &window, &far} {
					want := bruteWindow(allA, allB, win)
					for _, alg := range queryAlgorithms {
						what := fmt.Sprintf("%v window %v", alg, win)
						q := func() *Query {
							q := ws.Query(a, b).Algorithm(alg).Partitions(5)
							if win != nil {
								q.Window(*win)
							}
							return q
						}
						res, err := q().CountOnly().Run(ctx)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if res.Count() != int64(len(want)) {
							t.Fatalf("%s: counted %d pairs, brute force finds %d", what, res.Count(), len(want))
						}
						var single, batched []Pair
						if _, err := q().Emit(func(p Pair) { single = append(single, p) }).Run(ctx); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						checkPairs(t, what+" Emit", single, want)
						if _, err := q().EmitBatch(func(ps []Pair) { batched = append(batched, ps...) }).Run(ctx); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						checkPairs(t, what+" EmitBatch", batched, want)
					}
				}

				// The 3-way join, as a set of triples.
				want := map[[3]ID]bool{}
				for p := range brute(allA, allB) {
					ra, rb := allA[p.Left], allB[p.Right]
					in, _ := ra.Rect.Intersection(rb.Rect)
					for _, rc := range allC {
						if in.Intersects(rc.Rect) {
							want[[3]ID{ra.ID, rb.ID, rc.ID}] = true
						}
					}
				}
				got := map[[3]ID]bool{}
				res, err := ws.MultiwayJoin(ctx, []*Relation{a, b, c}, func(ids []ID) {
					tuple := [3]ID{ids[0], ids[1], ids[2]}
					if got[tuple] {
						t.Fatalf("multiway: tuple %v reported twice", tuple)
					}
					got[tuple] = true
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Tuples != int64(len(want)) || len(got) != len(want) {
					t.Fatalf("multiway: %d tuples (%d distinct), brute force finds %d", res.Tuples, len(got), len(want))
				}
				for tuple := range want {
					if !got[tuple] {
						t.Fatalf("multiway: tuple %v missing", tuple)
					}
				}
			})
		}
	}
}

// TestMixedFormWindowQuery: a window query over tree ∪ run equals a
// linear scan — for windows over both halves, windows that only delta
// records touch, and a run whose tallest record lies far below the
// window; and a view pinned before an append never sees it.
func TestMixedFormWindowQuery(t *testing.T) {
	ctx := context.Background()
	u := NewRect(0, 0, 1000, 1000)
	far := NewRect(1200, 1200, 1500, 1500)
	ids := func(t *testing.T, query func(context.Context, Rect, func(Record)) (int64, error), win Rect) []ID {
		t.Helper()
		var got []ID
		n, err := query(ctx, win, func(r Record) { got = append(got, r.ID) })
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(got)) {
			t.Fatalf("window %v: counted %d records, emitted %d", win, n, len(got))
		}
		slices.Sort(got)
		return got
	}
	scan := func(recs []Record, win Rect) []ID {
		var want []ID
		for _, r := range recs {
			if r.Rect.Intersects(win) {
				want = append(want, r.ID)
			}
		}
		slices.Sort(want)
		return want
	}

	for _, kind := range []string{"random", "clustered", "tall", "zero-extent", "duplicates"} {
		t.Run(kind, func(t *testing.T) {
			gen := mixedData[kind]
			base := gen(1, 900, u)
			delta := renumber(gen(2, 400, u), len(base))
			delta = append(delta, renumber(gen(3, 100, far), len(base)+len(delta))...)
			// Two records far taller than the rest, low in the universe:
			// one reaches up into the windows below, one stops short, and
			// either way the run's extent bound now spans most of it.
			delta = append(delta,
				Record{ID: uint32(len(base) + len(delta)), Rect: NewRect(400, 5, 420, 960)},
				Record{ID: uint32(len(base) + len(delta) + 1), Rect: NewRect(600, 2, 640, 700)})
			ws := NewWorkspace()
			ws.SetUniverse(u.Union(far))
			rel := liveRelation(t, ws, kind, base, delta)
			all := append(slices.Clone(base), delta...)

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
			pinned := rel.Pin()
			for _, win := range windows {
				if got, want := ids(t, rel.WindowQuery, win), scan(all, win); !slices.Equal(got, want) {
					t.Fatalf("window %v: %d records, a scan finds %d", win, len(got), len(want))
				}
			}

			// One more batch: the live relation sees it, the pinned view
			// keeps answering for its own epoch.
			late := renumber(gen(5, 150, u), len(all))
			if _, err := rel.Append(late); err != nil {
				t.Fatal(err)
			}
			for _, win := range windows {
				if got, want := ids(t, pinned.WindowQuery, win), scan(all, win); !slices.Equal(got, want) {
					t.Fatalf("window %v on the pinned view: %d records, its epoch holds %d", win, len(got), len(want))
				}
				if got, want := ids(t, rel.WindowQuery, win), scan(append(slices.Clone(all), late...), win); !slices.Equal(got, want) {
					t.Fatalf("window %v after the append: %d records, a scan finds %d", win, len(got), len(want))
				}
			}
		})
	}
}
