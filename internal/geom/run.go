package geom

import (
	"math"
	"sort"
)

// Run is a resident set of records ordered by ByLowerY — the sorted
// input form of the paper's sweep, held in memory — together with a
// bound on its records' y-extents. The bound is what lets a window be
// answered from the run without scanning it: order cuts the records
// that start above the window, the bound cuts those that must end
// below it, and only the slab between the two cuts is examined.
type Run struct {
	Recs []Record
	// MaxH is at least YExtent of every record in Recs.
	MaxH float64
}

// YExtent returns an upper bound on r's height, rounded up so that
// YLo + YExtent(r) >= YHi holds in float64 arithmetic as well.
func YExtent(r Rect) float64 {
	return math.Nextafter(float64(r.YHi)-float64(r.YLo), math.Inf(1))
}

// Slab returns the contiguous stretch of the run that can intersect
// win in y: every record outside it starts above win or, by MaxH, ends
// below it. Records inside still need the exact intersection test.
func (r Run) Slab(win Rect) []Record {
	lo := sort.Search(len(r.Recs), func(i int) bool {
		return float64(r.Recs[i].Rect.YLo)+r.MaxH >= float64(win.YLo)
	})
	rest := r.Recs[lo:]
	hi := sort.Search(len(rest), func(i int) bool { return rest[i].Rect.YLo > win.YHi })
	return rest[:hi]
}
