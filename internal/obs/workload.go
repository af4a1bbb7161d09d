package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// DefaultWorkloadBuckets is the query-window histogram's stripe count
// when none is configured: fine enough to expose hot bands, coarse
// enough that a fleet-wide merge stays a short array.
const DefaultWorkloadBuckets = 32

// Workload records where queries land: a fixed-bucket histogram of
// query-window x-intervals over the serving universe, plus
// per-(relation, algorithm) query counters. This is the input SOLAR
// argues a partitioner should learn from — the query workload, not
// just the data sample — so a rolling rebalance can cut stripe
// boundaries where queries concentrate, and the "auto" algorithm can
// see which (relation, algorithm) combinations traffic actually runs.
// The histogram is lock-free; the per-query counters are the metric
// family's own, so scrapes and /v1/stats read the same numbers and the
// registry's series bound is the only one there is.
type Workload struct {
	lo, hi float64
	width  float64

	buckets    []atomic.Int64
	windowed   atomic.Int64
	unwindowed atomic.Int64

	// stripes mirrors the histogram into the metric registry as
	// sj_query_window_stripe_total{stripe}; queries is
	// sj_queries_total{relation,algorithm}, which Snapshot reads back.
	stripes *CounterVec
	queries *CounterVec
}

// NewWorkload builds a recorder over the x-range [lo, hi) with n
// histogram buckets (defaults: 0..1000, DefaultWorkloadBuckets) and
// registers its metric families on reg. Every shard of a fleet must
// be configured with the same range and bucket count (they all derive
// from the same -region flag), so the routers' /v1/stats merge can sum
// buckets index-wise. One recorder per registry: Snapshot reads the
// query counts back from the family.
func NewWorkload(reg *Registry, lo, hi float64, n int) *Workload {
	if reg == nil {
		reg = NewRegistry()
	}
	if hi <= lo {
		lo, hi = 0, 1000
	}
	if n <= 0 {
		n = DefaultWorkloadBuckets
	}
	return &Workload{
		lo: lo, hi: hi, width: (hi - lo) / float64(n),
		buckets: make([]atomic.Int64, n),
		stripes: reg.CounterVec("sj_query_window_stripe_total",
			"Query windows overlapping each x-stripe of the serving universe, by stripe index.",
			"stripe"),
		queries: reg.CounterVec("sj_queries_total",
			"Queries accepted, by relation and algorithm (window queries count as algorithm \"window\").",
			"relation", "algorithm"),
	}
}

// ObserveQuery counts one accepted query against a relation and
// algorithm. Callers should pass catalog-validated relation names and
// parsed algorithm names — the values become metric labels; past the
// registry's series bound new pairs count under "_other".
func (w *Workload) ObserveQuery(relation, algorithm string) {
	w.queries.With(relation, algorithm).Inc()
}

// ObserveWindow records one query window's x-interval [xlo, xhi] into
// the histogram: every bucket the interval overlaps is incremented,
// with out-of-range windows clamped to the edge buckets so no query
// is lost.
func (w *Workload) ObserveWindow(xlo, xhi float64) {
	w.windowed.Add(1)
	if xhi < xlo {
		xlo, xhi = xhi, xlo
	}
	i0 := w.bucketOf(xlo)
	i1 := w.bucketOf(xhi)
	for i := i0; i <= i1; i++ {
		w.buckets[i].Add(1)
		w.stripes.With(strconv.Itoa(i)).Inc()
	}
}

// ObserveUnwindowed counts a query with no window — demand for the
// whole universe, kept out of the histogram so full scans don't drown
// the locality signal.
func (w *Workload) ObserveUnwindowed() { w.unwindowed.Add(1) }

// bucketOf maps an x-coordinate to its bucket index, clamped into
// range.
func (w *Workload) bucketOf(x float64) int {
	i := int((x - w.lo) / w.width)
	if i < 0 {
		return 0
	}
	if i >= len(w.buckets) {
		return len(w.buckets) - 1
	}
	return i
}

// WorkloadSnapshot is a point-in-time copy of a Workload, the shape
// /v1/stats serializes and a router sums across shards.
type WorkloadSnapshot struct {
	XLo, XHi   float64
	Buckets    []int64
	Windowed   int64
	Unwindowed int64
	Queries    map[string]map[string]int64
}

// Snapshot copies the recorder's current state.
func (w *Workload) Snapshot() WorkloadSnapshot {
	s := WorkloadSnapshot{
		XLo: w.lo, XHi: w.hi,
		Buckets:    make([]int64, len(w.buckets)),
		Windowed:   w.windowed.Load(),
		Unwindowed: w.unwindowed.Load(),
	}
	for i := range w.buckets {
		s.Buckets[i] = w.buckets[i].Load()
	}
	f := w.queries.f
	f.mu.RLock()
	s.Queries = make(map[string]map[string]int64)
	for key, c := range f.children {
		rel, alg, _ := strings.Cut(key, "\xff")
		if s.Queries[rel] == nil {
			s.Queries[rel] = make(map[string]int64, 8)
		}
		s.Queries[rel][alg] = c.(*Counter).Value()
	}
	f.mu.RUnlock()
	return s
}
