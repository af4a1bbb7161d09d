package parallel

import (
	"math"

	"unijoin/internal/geom"
)

// shape is what the stripe-count estimate knows about one input: how
// many of its records the join will sweep and their mean extents.
type shape struct {
	n    int
	w, h float64
}

// measure summarizes one input for stripeCount, striding it so that at
// most ~sampleMax records are touched. A windowed join measures its
// narrowed input, so the count is exactly the records that qualify —
// the quantity the estimate most depends on.
func measure(recs []geom.Record) shape {
	step := 1
	if len(recs) > sampleMax {
		step = len(recs) / sampleMax
	}
	var s shape
	for i := 0; i < len(recs); i += step {
		r := recs[i].Rect
		s.n++
		s.w += float64(r.XHi - r.XLo)
		s.h += float64(r.YHi - r.YLo)
	}
	if s.n > 0 {
		s.w /= float64(s.n)
		s.h /= float64(s.n)
	}
	s.n = len(recs)
	return s
}

// The stripe-count cost model, in nanoseconds on the development box
// (see stripeCount).
const (
	comparisonCost = 8    // one candidate comparison in the kernel's scan
	placementCost  = 25   // classifying and copying one record into one stripe
	partitionCost  = 2000 // fixed work per partition: fragments, checks, scheduling
)

// maxAutoPartitions caps the automatic stripe count: boundaries are
// quantiles of at most 2*sampleMax sampled centers, and far past this
// point there are too few samples per stripe to balance them.
const maxAutoPartitions = 2048

// stripeCount chooses the stripe count K for a join of inputs shaped
// a and b over the universe (narrowed to the window, when there is
// one, since that is where the qualifying records lie).
//
// A forward scan has no structure to bound its active set: the record
// leaving one run is compared with every record of the other run that
// starts within its y-interval, whatever their x. Over a region of
// height H that is C = n_a·n_b·(h̄_a+h̄_b)/H comparisons in all, and
// K stripes divide it by K — except that a record of width w̄ lands
// in 1 + K·w̄/W stripes of a width-W region, is compared again in each
// of them, and costs a placement each time; and every partition costs
// a constant. With ω = w̄/W per side, minimizing
//
//	comparisonCost·C·(1+K·ω_a)(1+K·ω_b)/K
//	  + placementCost·(n + K·(n_a·ω_a+n_b·ω_b)) + partitionCost·K
//
// over K gives the square root below.
//
// ω assumes the x-centers are spread over the region. When nearly all
// of them sit in a sliver of it and the records are wide relative to
// that sliver, quantile boundaries crowd into the sliver, records cross
// many more of them than K·ω, and the K chosen here is too large (see
// ROADMAP, "Array sweep"); thin records on the same skew are fine.
func stripeCount(a, b shape, universe geom.Rect, window *geom.Rect) int {
	region := universe
	if window != nil {
		if in, ok := universe.Intersection(*window); ok {
			region = in
		}
	}
	height, width := float64(region.Height()), float64(region.Width())
	if height <= 0 || width <= 0 {
		return 1
	}
	na, nb := float64(a.n), float64(b.n)
	wa, wb := a.w/width, b.w/width
	scans := comparisonCost * na * nb * (a.h + b.h) / height // comparison cost at K = 1
	perStripe := scans*wa*wb + placementCost*(na*wa+nb*wb) + partitionCost
	return max(1, min(int(math.Sqrt(scans/perStripe)+0.5), maxAutoPartitions))
}
