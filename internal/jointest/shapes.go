package jointest

import (
	"math"
	"math/rand"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
)

// Input is one generated case: two relations to join, a third for
// k-way joins, and where each of the two splits into a bulk-loaded
// base and a delta that arrives by append.
type Input struct {
	A, B, C []geom.Record
	// BaseA and BaseB are how many leading records of A and B form the
	// base; the rest are the delta. A relation form without a delta
	// (a file, a tree, a run) holds all of them.
	BaseA, BaseB int
}

// Shape is a named recipe for an Input. Gen is a function of its
// arguments alone: seed picks the random choices, u bounds the data,
// and cuts are the x-coordinates the caller will cut stripes at —
// shard boundaries, ownership intervals, slab edges — so that a shape
// about boundaries can sit records exactly on them.
type Shape struct {
	Name string
	Gen  func(seed int64, u geom.Rect, cuts []geom.Coord) Input
}

// Records per side: small enough that the quadratic reference is
// instant, large enough that every stripe of a 7-tiling holds records.
const (
	sizeA = 150
	sizeB = 120
	sizeC = 30
)

// Shapes lists every input shape that is known to have broken a join,
// or that guards a rule one careless comparison would break. To teach
// the suite a new one, add it here: the kernels' tests and the Query
// API's range over this list, the serving tests draw cases from it.
var Shapes = []Shape{
	{"uniform", plain(uniform)},
	{"clustered", plain(clustered)},
	// Every record's y-interval overlaps most of the other side's: the
	// sweep's active set is the data, only x tells candidates apart.
	{"tall", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		w, h := float64(u.Width()), float64(u.Height())
		out := make([]geom.Record, n)
		for i := range out {
			x, y := float64(u.XLo)+rng.Float64()*w, float64(u.YLo)+rng.Float64()*h/2
			out[i].Rect = geom.NewRect(geom.Coord(x), geom.Coord(y), geom.Coord(x+w*(1+4*rng.Float64())/400), geom.Coord(y+0.4*h))
		}
		return out
	})},
	{"zero-extent", plain(zeroExtent)},
	// A dozen rectangles, each many times over under distinct IDs:
	// every merge of sorted runs ties, every tie must keep both.
	{"duplicates", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		distinct := datagen.Uniform(rng.Int63(), 12, u, float64(u.Width())/5)
		out := make([]geom.Record, n)
		for i := range out {
			out[i].Rect = distinct[i%len(distinct)].Rect
		}
		return out
	})},
	// IDs that repeat within a relation. Nothing forbids them, and
	// anything that looks geometry up by ID or dedups pairs by ID is
	// wrong on them (PR 19's ownership table, PR 20's sort-dedup).
	{"repeated-ids-left", with(uniform, func(in *Input) { repeatIDs(in.A, 40) })},
	{"repeated-ids-both", with(uniform, func(in *Input) {
		repeatIDs(in.A, 40)
		repeatIDs(in.B, 30)
		repeatIDs(in.C, 10)
	})},
	// Tiles of one grid: neighbours share an edge or a corner exactly,
	// and touching counts as intersecting in both dimensions.
	{"touching", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		cell := u.Width() / 25
		out := make([]geom.Record, n)
		for i := range out {
			x, y := u.XLo+cell*geom.Coord(rng.Intn(25)), u.YLo+cell*geom.Coord(rng.Intn(25))
			out[i].Rect = geom.NewRect(x, y, x+cell, y+cell)
		}
		return out
	})},
	// Four values of YLo in all: the sweep order is decided by the
	// tie-break almost everywhere.
	{"equal-ylo", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		out := make([]geom.Record, n)
		for i := range out {
			x := u.XLo + geom.Coord(rng.Float64())*u.Width()
			y := u.YLo + u.Height()/4*geom.Coord(rng.Intn(4))
			out[i].Rect = geom.NewRect(x, y, x+geom.Coord(rng.Float64())*u.Width()/16, y+geom.Coord(rng.Float64())*u.Height()/3)
		}
		return out
	})},
	{"on-cuts", onCuts},
	// 98 % of the centres in a sliver a ten-thousandth of the universe
	// wide: nearly every quantile boundary falls inside it. Wide
	// records then cross all of those boundaries, thin ones none.
	{"sliver-wide", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		return sliver(rng, n, u, float64(u.Width())/5, float64(u.Height())/50)
	})},
	{"sliver-thin", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		return sliver(rng, n, u, float64(u.Width())/100_000, float64(u.Height())/4)
	})},
	// A record across the whole universe in x is loaded by every shard
	// and crosses every stripe; one across it in y is in every sweep's
	// active set from start to end.
	{"spanning", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		out := uniform(rng, n, u)
		y := u.YLo + geom.Coord(rng.Float64())*u.Height()/2
		out[0].Rect = geom.NewRect(u.XLo, y, u.XHi, y+u.Height()/50)
		x := u.XLo + geom.Coord(rng.Float64())*u.Width()
		out[1].Rect = geom.NewRect(x, u.YLo, x+u.Width()/50, u.YHi)
		return out
	})},
	// Records on both sides that start at the universe's left edge and
	// reach far right — the first two of each side across all of it —
	// in y-bands the sides share, so they meet. Under a window near the
	// right edge, such a record's left edge, and such a pair's larger
	// left edge, lies every stripe away from the window: the
	// counter-example to owning windowed answers by the unclipped
	// reference point, which gives them to an interval the window never
	// touches.
	{"reaching-in", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		out := uniform(rng, n, u)
		w, h := u.Width(), u.Height()
		for i := 0; i < min(8, n); i++ {
			xhi := u.XHi
			if i >= 2 {
				xhi = u.XLo + w*(0.5+geom.Coord(i)/16)
			}
			y := u.YLo + h*geom.Coord(i+1)/10
			out[i].Rect = geom.NewRect(u.XLo+w*geom.Coord(i)/100, y, xhi, y+h/40)
		}
		return out
	})},
	{"empty-left", with(uniform, func(in *Input) { in.A, in.BaseA = nil, 0 })},
	{"empty-right", with(uniform, func(in *Input) { in.B, in.BaseB = nil, 0 })},
	// How a live relation's records split between its packed base and
	// its delta run: all in the base, all in the delta (a tree over
	// nothing), and a delta that lies wholly outside the base's MBR.
	{"base-only", with(clustered, func(in *Input) { in.BaseA, in.BaseB = len(in.A), len(in.B) })},
	{"delta-only", with(clustered, func(in *Input) { in.BaseA, in.BaseB = 0, 0 })},
	{"delta-outside", plain(func(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
		near := geom.Rect{XLo: u.XLo, YLo: u.YLo, XHi: u.XLo + u.Width()/2, YHi: u.YLo + u.Height()/2}
		far := geom.Rect{XLo: u.XLo + 0.7*u.Width(), YLo: u.YLo + 0.7*u.Height(), XHi: u.XHi - u.Width()/20, YHi: u.YHi - u.Height()/20}
		return append(uniform(rng, n*2/3, near), uniform(rng, n-n*2/3, far)...)
	})},
}

// ShapeNamed returns the shape of that name, which must be in Shapes.
func ShapeNamed(name string) Shape {
	for _, s := range Shapes {
		if s.Name == name {
			return s
		}
	}
	panic("jointest: no shape named " + name)
}

// OverflowRecord is the input of the law that records with non-finite
// coordinates are refused wherever they enter: its x-coordinates are
// finite as the float64 a JSON body carries and +Inf as a float32.
func OverflowRecord() (xlo, ylo, xhi, yhi float64, id geom.ID) {
	return 1e39, 10, 1e39, 20, 900_001
}

// plain turns a recipe for n records over u (their IDs are assigned
// here) into a Shape.Gen: the three relations draw from the recipe
// independently, IDs are positions, and the last third of A and of B is
// delta.
func plain(rects func(rng *rand.Rand, n int, u geom.Rect) []geom.Record) func(int64, geom.Rect, []geom.Coord) Input {
	return func(seed int64, u geom.Rect, _ []geom.Coord) Input {
		side := func(k int64, n int) []geom.Record {
			return number(rects(rand.New(rand.NewSource(3*seed+k)), n, u))
		}
		return Input{A: side(0, sizeA), B: side(1, sizeB), C: side(2, sizeC), BaseA: sizeA * 2 / 3, BaseB: sizeB * 2 / 3}
	}
}

// with is plain(rects) followed by a change to the drawn Input.
func with(rects func(*rand.Rand, int, geom.Rect) []geom.Record, change func(*Input)) func(int64, geom.Rect, []geom.Coord) Input {
	return func(seed int64, u geom.Rect, _ []geom.Coord) Input {
		in := plain(rects)(seed, u, nil)
		change(&in)
		return in
	}
}

// number renumbers recs by position.
func number(recs []geom.Record) []geom.Record {
	for i := range recs {
		recs[i].ID = geom.ID(i)
	}
	return recs
}

// repeatIDs folds the IDs of recs onto 0..distinct-1. Every other
// repeat also moves next to the first record of its ID, so that the two
// meet the same partners and a pair of IDs is a result more than once;
// the rest stay where they were, far from their namesake — the copy an
// ID → geometry lookup confuses it with.
func repeatIDs(recs []geom.Record, distinct int) {
	for i := range recs {
		recs[i].ID = geom.ID(i % distinct)
		if i >= distinct && i%2 == 0 {
			first := recs[i%distinct].Rect
			dx, dy := first.Width()/8, first.Height()/8
			recs[i].Rect = geom.Rect{XLo: first.XLo + dx, YLo: first.YLo + dy, XHi: first.XHi + dx, YHi: first.YHi + dy}
		}
	}
}

// uniform draws rectangles up to a tenth of the universe on a side:
// large enough that two relations of a hundred-odd records share a few
// hundred pairs and that many records cross any cut.
func uniform(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
	return datagen.Uniform(rng.Int63(), n, u, float64(u.Width())/10)
}

// clustered draws centres around six points of a 3 × 2 grid.
func clustered(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
	w, h := float64(u.Width()), float64(u.Height())
	out := make([]geom.Record, n)
	for i := range out {
		cx := float64(u.XLo) + w*(0.15+0.35*float64(i%3))
		cy := float64(u.YLo) + h*(0.2+0.3*float64(i%2))
		x, y := cx+rng.NormFloat64()*w/33, cy+rng.NormFloat64()*h/33
		out[i].Rect = geom.NewRect(geom.Coord(x), geom.Coord(y), geom.Coord(x+rng.Float64()*w/40), geom.Coord(y+rng.Float64()*h/40))
	}
	return out
}

// zeroExtent draws points and axis-parallel segments on a coarse
// lattice, so that they do meet each other.
func zeroExtent(rng *rand.Rand, n int, u geom.Rect) []geom.Record {
	dx, dy := u.Width()/50, u.Height()/50
	out := make([]geom.Record, n)
	for i := range out {
		x, y := u.XLo+dx*geom.Coord(rng.Intn(50)), u.YLo+dy*geom.Coord(rng.Intn(50))
		r := geom.NewRect(x, y, x, y)
		switch rng.Intn(3) {
		case 1:
			r.XHi += 2 * dx
		case 2:
			r.YHi += 2 * dy
		}
		out[i].Rect = r
	}
	return out
}

// sliver puts all but one centre in 50 into the ten-thousandth of u's
// x-span at its middle, under records up to width wide and height
// high.
func sliver(rng *rand.Rand, n int, u geom.Rect, width, height float64) []geom.Record {
	w, h := float64(u.Width()), float64(u.Height())
	out := make([]geom.Record, n)
	for i := range out {
		x := float64(u.XLo) + w/2 + rng.Float64()*w/10_000
		if i%50 == 0 {
			x = float64(u.XLo) + rng.Float64()*w
		}
		y := float64(u.YLo) + rng.Float64()*h
		dx, dy := rng.Float64()*width/2, rng.Float64()*height/2
		out[i].Rect = geom.NewRect(geom.Coord(x-dx), geom.Coord(y-dy), geom.Coord(x+dx), geom.Coord(y+dy))
	}
	return out
}

// CutRecords sits records on every cut: one that ends there and one
// that starts there — on opposite sides of the join, sharing a y-band,
// so they meet in the line x = cut and their reference point is the
// boundary itself — each also one float to either side of the cut, in
// case the code under test rounds it differently; a zero-width record
// on the cut; and one crossing it.
func CutRecords(u geom.Rect, cuts []geom.Coord) (a, b []geom.Record) {
	w, h := u.Width(), u.Height()
	for i, c := range cuts {
		y := u.YLo + h*geom.Coord(i%7)/8
		for k, side := range [2]*[]geom.Record{&a, &b} {
			add := func(r geom.Rect) { *side = append(*side, geom.Record{Rect: r}) }
			for _, x := range []geom.Coord{math.Nextafter32(c, u.XLo), c, math.Nextafter32(c, u.XHi)} {
				if (i+k)%2 == 0 {
					add(geom.NewRect(x-w/40, y+h/100, x, y+h/25)) // ends on the cut
				} else {
					add(geom.NewRect(x, y+h/50, x+w/40, y+h/20)) // starts on it
				}
			}
			add(geom.NewRect(c, y, c, y+h/10))
			add(geom.NewRect(c-w/300, y+h/30, c+w/300, y+h/15))
		}
	}
	return a, b
}

// onCuts is CutRecords made up to size with uniform filler, the order
// shuffled so that base and delta both get their share.
func onCuts(seed int64, u geom.Rect, cuts []geom.Coord) Input {
	side := func(k int64, on []geom.Record, n int) []geom.Record {
		rng := rand.New(rand.NewSource(3*seed + k))
		out := append(on, uniform(rng, max(n-len(on), 0), u)...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return number(out)
	}
	a, b := CutRecords(u, cuts)
	in := Input{A: side(0, a, sizeA), B: side(1, b, sizeB), C: side(2, nil, sizeC)}
	in.BaseA, in.BaseB = len(in.A)*2/3, len(in.B)*2/3
	return in
}
