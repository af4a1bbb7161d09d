package parallel

import (
	"fmt"
	"math"
	"slices"

	"unijoin/internal/geom"
)

// sampleMax bounds the per-input sample used to place stripe
// boundaries. Quantiles of a few thousand centers locate the
// population clusters of TIGER-like data closely enough to balance
// partitions within a few percent.
const sampleMax = 4096

// samplesPerStripe is how many centers per stripe and input a windowed
// join samples, where that is less than sampleMax. A whole relation's
// sample is taken once and cached; a window's is taken and sorted by
// every query, for the handful of stripes a selective window is worth,
// and a hundred-odd centers a stripe — what sampleMax gives the
// eighty-stripe joins of whole relations — place its boundaries as well
// as thousands would.
const samplesPerStripe = 128

// Partitioner cuts the universe into K vertical stripes. Boundaries
// are quantiles of sampled record x-centers, so skewed inputs still
// produce balanced stripes; with no sample the stripes are equal
// width. Stripe membership clamps: everything left of the first
// boundary belongs to stripe 0 and everything right of the last to
// stripe K-1, so records straying outside the universe stay correct.
//
// Boundaries are strictly increasing: duplicate quantiles (heavily
// clustered duplicate x-centers put the same value at several
// quantile positions) are collapsed, so the partitioner may resolve
// fewer stripes than requested but never produces a degenerate empty
// stripe or a zero-width OwnerRange interval.
//
// A Partitioner is the cut and nothing else: it knows no join's
// window or Own interval, and nothing writes to it once its
// constructor returns, so one is shared freely — by the distribution
// workers of a join, and by a shard plan (shard.Plan) that hands the
// same cut to a fleet.
type Partitioner struct {
	universe geom.Rect
	// bounds holds the internal boundaries in strictly increasing
	// order; stripe i covers [bounds[i-1], bounds[i]).
	bounds []geom.Coord

	// cells is the x-cell → stripe table behind Range: the span between
	// the first and last boundary is cut into len(cells)-1 equal-width
	// cells, and cells[c] counts the boundaries lying in cells before
	// c, so the stripe of any x in cell c is at least cells[c] and at
	// most cells[c+1] (the last entry is a sentinel, len(bounds)); Range
	// settles it among the boundaries sharing the cell. It is built by
	// every constructor, never lazily: one Partitioner is read by all
	// distribution workers at once.
	cells   []int32
	cellLo  float64 // x of cell 0's lower edge (the first boundary)
	cellInv float64 // cells per unit of x; 0 when there is one cell
}

// cellsPerStripe is the lookup table's resolution. Equal-width cells
// over quantile boundaries are coarsest where the data is densest, so
// the table carries a few cells per stripe to keep the walk after the
// lookup short there too.
const cellsPerStripe = 8

// walkMax is the most boundaries Range steps over one by one. On
// spread data a cell holds zero or one boundary; on heavily clustered
// centers (98% of them within 0.01% of the x-span) hundreds of quantile
// boundaries share the cluster's cell, and Range bisects them instead.
const walkMax = 4

// NewPartitioner builds a partitioner of at most k stripes over the
// universe, placing boundaries at x-center quantiles of the given
// inputs.
func NewPartitioner(universe geom.Rect, k int, inputs ...[]geom.Record) *Partitioner {
	return NewPartitionerFromSamples(universe, k, centerSamples(k, sampleMax, inputs...)...)
}

// centerSamples returns one sorted sample of up to ~limit x-centers per
// input, or none when k is 1 and there are no boundaries to place.
func centerSamples(k, limit int, inputs ...[]geom.Record) [][]geom.Coord {
	if k <= 1 {
		return nil
	}
	samples := make([][]geom.Coord, len(inputs))
	for i, in := range inputs {
		samples[i] = sortedCenterSample(in, limit)
	}
	return samples
}

// NewPartitionerFromSamples builds a partitioner from pre-sorted
// x-center samples (one per input, each as produced by
// SortedCenterSample). The sorted union of the samples is the sample
// itself — the boundaries are those NewPartitioner places over the
// sampled inputs — but merging sorted samples is linear, so a catalog
// relation whose sample is cached across queries skips the sort.
func NewPartitionerFromSamples(universe geom.Rect, k int, samples ...[]geom.Coord) *Partitioner {
	var merged []geom.Coord
	if k > 1 && len(samples) > 0 {
		merged = samples[0]
		for _, s := range samples[1:] {
			merged = mergeSorted(merged, s)
		}
	}
	p := &Partitioner{universe: universe}
	p.placeBounds(k, merged)
	p.buildCells()
	return p
}

// PartitionerFromBoundaries builds a partitioner directly from
// internal stripe boundaries (finite and strictly increasing, as
// returned by Boundaries) — the constructor a shard uses to
// reconstruct the partitioning a planner computed elsewhere. Unlike
// the sampling constructors, the boundaries here come from
// configuration, so they are validated: a NaN would otherwise slip
// through an ordering check (every comparison with NaN is false) and
// silently collapse stripes.
func PartitionerFromBoundaries(universe geom.Rect, bounds []geom.Coord) (*Partitioner, error) {
	for i, b := range bounds {
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return nil, fmt.Errorf("parallel: boundary %d is not finite in %v", i, bounds)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("parallel: boundaries must be strictly increasing, got %v", bounds)
		}
	}
	p := &Partitioner{universe: universe, bounds: slices.Clone(bounds)}
	p.buildCells()
	return p, nil
}

// placeBounds sets the boundaries of at most k stripes: sample
// quantiles, or equal widths when there is too little data to
// estimate quantiles.
func (p *Partitioner) placeBounds(k int, sample []geom.Coord) {
	if k <= 1 {
		return
	}
	if len(sample) < k {
		w := float64(p.universe.Width()) / float64(k)
		if w <= 0 {
			// Degenerate universe: one stripe holds everything.
			return
		}
		for i := 1; i < k; i++ {
			p.bounds = append(p.bounds, p.universe.XLo+geom.Coord(float64(i)*w))
		}
		p.dedup(p.universe.XLo)
		return
	}
	for i := 1; i < k; i++ {
		p.bounds = append(p.bounds, sample[i*len(sample)/k])
	}
	p.dedup(sample[0])
}

// buildCells fills the lookup table from the final boundaries. The
// table is defined through cellOf itself — cells[c] is the number of
// boundaries whose own cell is before c — so whatever rounding cellOf
// performs, it is monotone in x and the table brackets the answer: a
// boundary in an earlier cell than x is at or below x, one in a later
// cell is above it.
func (p *Partitioner) buildCells() {
	p.cells = []int32{0, int32(len(p.bounds))}
	p.cellLo, p.cellInv = 0, 0
	if len(p.bounds) < 2 {
		return
	}
	lo, hi := float64(p.bounds[0]), float64(p.bounds[len(p.bounds)-1])
	n := cellsPerStripe * len(p.bounds)
	p.cellLo, p.cellInv = lo, float64(n)/(hi-lo)
	p.cells = make([]int32, n+1)
	b := 0
	for c := range p.cells {
		for b < len(p.bounds) && p.cellOf(p.bounds[b]) < c {
			b++
		}
		p.cells[c] = int32(b)
	}
}

// cellOf returns the table cell of x, clamped into the table (NaN
// lands in cell 0).
func (p *Partitioner) cellOf(x geom.Coord) int {
	f := (float64(x) - p.cellLo) * p.cellInv
	if !(f > 0) {
		return 0
	}
	if last := len(p.cells) - 2; f >= float64(last) {
		return last
	}
	return int(f)
}

// SortedCenterSample returns a sorted sample of up to ~sampleMax
// record x-centers, the per-input ingredient NewPartitionerFromSamples
// merges. NewPartitioner and an unwindowed Join sample their inputs the
// same way, so boundaries computed from cached samples match boundaries
// computed from the records directly.
func SortedCenterSample(recs []geom.Record) []geom.Coord {
	return sortedCenterSample(recs, sampleMax)
}

// MergeSamples merges two sorted x-center samples (each as produced
// by SortedCenterSample or a previous MergeSamples) into one sorted
// sample, decimating evenly when the merge exceeds the sample bound —
// the incremental maintenance step behind live ingestion: a mutable
// relation's cached sample absorbs each append's centers by linear
// merge instead of re-sampling and re-sorting the whole relation, so
// stripe boundaries keep tracking the data as it arrives. Decimation
// keeps every 2nd element, preserving the even spread that makes
// quantiles of the sample track quantiles of the population.
func MergeSamples(a, b []geom.Coord) []geom.Coord {
	merged := mergeSorted(a, b)
	for len(merged) > 2*sampleMax {
		half := merged[:0]
		for i := 0; i < len(merged); i += 2 {
			half = append(half, merged[i])
		}
		merged = half
	}
	return merged
}

// mergeSorted merges two sorted coordinate slices into a fresh sorted
// slice in linear time.
func mergeSorted(a, b []geom.Coord) []geom.Coord {
	out := make([]geom.Coord, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortedCenterSample returns up to ~limit x-centers of one input (at
// most 2*limit), striding the input, in sorted order. A windowed join
// samples its narrowed input, so a selective window still contributes
// a full, evenly spread sample of the records the join will sweep.
func sortedCenterSample(in []geom.Record, limit int) []geom.Coord {
	step := 1
	if len(in) > limit {
		step = len(in) / limit
	}
	sample := make([]geom.Coord, 0, (len(in)+step-1)/step)
	for i := 0; i < len(in); i += step {
		c := in[i].Rect
		sample = append(sample, c.XLo+(c.XHi-c.XLo)/2)
	}
	slices.Sort(sample)
	return sample
}

// dedup collapses boundaries so bounds is strictly increasing and
// strictly above floor (the minimum sampled center, so stripe 0 is
// never an empty sliver). Duplicate quantiles — heavily clustered
// duplicate x-centers land the same value on several quantile
// positions — would otherwise yield empty stripes whose OwnerRange is
// a zero-width interval owning no reference point.
func (p *Partitioner) dedup(floor geom.Coord) {
	out := p.bounds[:0]
	for _, b := range p.bounds {
		if b > floor && (len(out) == 0 || b > out[len(out)-1]) {
			out = append(out, b)
		}
	}
	p.bounds = out
}

// Partitions returns the stripe count K.
func (p *Partitioner) Partitions() int { return len(p.bounds) + 1 }

// Boundaries returns a copy of the K-1 internal stripe boundaries in
// strictly increasing order (empty for a single stripe) — the portable
// description of this partitioning that a shard planner distributes.
func (p *Partitioner) Boundaries() []geom.Coord { return slices.Clone(p.bounds) }

// Range returns the stripe indexes a record's x-interval overlaps:
// first is the unique i with bounds[i-1] <= XLo < bounds[i], clamped
// into [0, K-1], and last the same for XHi. The left edge costs one
// table lookup, then a walk over the boundaries sharing its cell, or a
// bisection when there are more than walkMax of them. The right edge
// is found by walking on from the left edge's stripe: almost every
// record ends in the stripe it starts in.
func (p *Partitioner) Range(r geom.Rect) (first, last int) {
	c := p.cellOf(r.XLo)
	first, end := int(p.cells[c]), int(p.cells[c+1])
	if end-first > walkMax {
		for first < end {
			if m := int(uint(first+end) >> 1); r.XLo >= p.bounds[m] {
				first = m + 1
			} else {
				end = m
			}
		}
	} else {
		// The walk ends inside the bracket by itself — the boundaries
		// past end lie in later cells, above XLo — and testing
		// first < end instead measured 20% slower on map-like data.
		for first < len(p.bounds) && r.XLo >= p.bounds[first] {
			first++
		}
	}
	last = first
	for last < len(p.bounds) && r.XHi >= p.bounds[last] {
		last++
	}
	return first, last
}

// OwnerRange returns the half-open interval [lo, hi) of reference
// points stripe i owns, with infinite sentinels on the boundary stripes
// so the clamping of Range is preserved: the stripes' ranges tile the
// line. A join that owns only an interval itself (Options.Own) clamps
// these ranges in its layout, never here.
func (p *Partitioner) OwnerRange(i int) (lo, hi geom.Coord) {
	lo = geom.Coord(math.Inf(-1))
	hi = geom.Coord(math.Inf(1))
	if i > 0 {
		lo = p.bounds[i-1]
	}
	if i < len(p.bounds) {
		hi = p.bounds[i]
	}
	return lo, hi
}

// Distribute appends every record to each stripe bucket its
// x-interval overlaps and returns the number of placements (>=
// len(recs)). buckets must have length Partitions(). It is the serial
// reference for where the engine's chunked parallel distribution puts
// records (see distribute), less the split by class.
func (p *Partitioner) Distribute(recs []geom.Record, buckets [][]geom.Record) int64 {
	var placed int64
	for _, r := range recs {
		first, last := p.Range(r.Rect)
		for i := first; i <= last; i++ {
			buckets[i] = append(buckets[i], r)
		}
		placed += int64(last - first + 1)
	}
	return placed
}
