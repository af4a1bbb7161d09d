// Package obs is the dependency-free metrics subsystem behind the
// serving layers' observability: a concurrent Registry of counters,
// gauges, and fixed-bucket histograms with label support, rendered in
// the Prometheus text exposition format (version 0.0.4).
//
// Registration is idempotent — asking for an already-registered
// family with the same shape returns the existing one — and panics on
// a shape conflict (same name, different kind, labels, or buckets),
// which is always a programming error. All metric operations are safe
// for concurrent use and lock-free on the hot path: counters and
// histogram buckets are atomic integers, gauges and histogram sums
// are CAS loops over float64 bits.
//
// The intended wiring: each serving process owns one Registry,
// exposes it on GET /metrics via Handler, and threads the typed
// handles (Counter, Gauge, Histogram and their labeled Vec variants)
// through its request path.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency bucket ladder in seconds, spanning
// sub-millisecond cache hits to multi-second scatter-gather joins.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// kind is the metric family type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*family
}

// maxSeries bounds a family's children, the one map in this package
// keyed by a caller's strings: once a family holds this many label
// tuples, a new tuple resolves to one shared overflow child whose
// label values are all otherLabel, and seriesDropped counts the
// lookup. Label values are meant to come from bounded sets (relation
// names, algorithms, status codes); the bound holds memory and scrape
// size when a caller gets that wrong.
const (
	maxSeries  = 4096
	otherLabel = "_other"
)

// seriesDropped is process-wide; every Registry exposes it.
var seriesDropped Counter

// NewRegistry returns a registry holding only the overflow counter.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]*family)}
	r.register("sj_metric_series_dropped_total",
		"Lookups of a new label tuple refused past the per-family series bound and folded into the \"_other\" series.",
		kindCounter, nil, nil).children[""] = &seriesDropped
	return r
}

// family is one named metric with a fixed label schema; its children
// are the per-label-value instances.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing
	other   string    // children key of the overflow series: otherLabel for every label

	mu       sync.RWMutex
	children map[string]any // label-value key → *Counter | *Gauge | *Histogram
}

// register returns the family, creating it on first use and refusing a
// shape conflict.
func (r *Registry) register(name, help string, k kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: %s re-registered as %s with a different shape", name, k))
		}
		return f
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s: buckets must be strictly increasing", name))
		}
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		other:    strings.Join(slices.Repeat([]string{otherLabel}, len(labels)), "\xff"),
		children: make(map[string]any),
	}
	r.byName[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a counter family with the given
// label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a gauge family with the given label
// names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (nil for DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns) a histogram family with the
// given bucket upper bounds (nil for DefBuckets) and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, buckets, labels)}
}

// child returns the instance for one label-value tuple, creating it on
// first use — or, past maxSeries tuples, the family's overflow child.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok = f.children[key]
	if !ok && len(f.children) >= maxSeries {
		seriesDropped.Inc()
		key = f.other
		c, ok = f.children[key]
	}
	if ok {
		return c
	}
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	default:
		c = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// Total sums the values of every child counter.
func (v *CounterVec) Total() int64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	var t int64
	for _, c := range v.f.children {
		t += c.(*Counter).Value()
	}
	return t
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (which must not be negative for Prometheus semantics).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of float observations
// (conventionally seconds).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	count  atomic.Int64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Handler serves the registry in the Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(r.Render()))
	})
}

// Render returns the registry in the Prometheus text exposition
// format, families and children in sorted order so scrapes are
// deterministic.
func (r *Registry) Render() string {
	r.mu.RLock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.byName[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	return b.String()
}

// render writes one family.
func (f *family) render(b *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	if len(children) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for i, c := range children {
		var values []string
		if keys[i] != "" || len(f.labels) > 0 {
			values = strings.Split(keys[i], "\xff")
		}
		switch m := c.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, ""), m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(m.Value()))
		case *Histogram:
			var cum int64
			for j, bound := range m.bounds {
				cum += m.counts[j].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, formatFloat(bound)), cum)
			}
			cum += m.counts[len(m.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(m.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, ""), m.Count())
		}
	}
}

// labelString renders a {name="value",...} block, with an optional
// trailing le bound for histogram bucket lines; empty when there is
// nothing to render.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes exactly what the exposition format requires:
		// backslash, double quote, and newline.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
