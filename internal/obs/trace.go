package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one node of a per-request trace tree: a named piece of work
// with a wall-clock start, a duration, free-form attributes, and child
// spans. A routed join builds the tree
//
//	router.join → scatter[shard-k] → server.join → {partition, sweep, stream}
//
// so the PR 6 slowest-shard phase merge becomes an explainable
// structure instead of a max. A Span is owned by the goroutine that
// builds it — handlers construct their subtree single-threaded (the
// router assembles per-shard subtrees only after its scatter wait), so
// no locking is needed; once a span is handed to a TraceStore it must
// be treated as immutable.
type Span struct {
	// ID names the span for cross-process linking: a router sends each
	// scatter span's ID downstream as X-Parent-Span, so the shard's own
	// stored trace points back at the exact scatter leg that caused it.
	ID   string
	Name string
	// Attrs carries key=value annotations (relation names, algorithm,
	// shard endpoint). Unlike metric labels these may hold unbounded
	// values: spans live in a bounded ring buffer, not a time-series
	// registry, so cardinality cannot accumulate.
	Attrs    map[string]string
	Start    time.Time
	Duration time.Duration
	Children []*Span
}

// NewSpanID returns a fresh 8-hex-character span ID.
func NewSpanID() string {
	var b [4]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// StartSpan begins a span now, with a fresh ID.
func StartSpan(name string) *Span {
	return &Span{ID: NewSpanID(), Name: name, Start: time.Now()}
}

// SetAttr annotates the span, returning it for chaining.
func (s *Span) SetAttr(k, v string) *Span {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
	return s
}

// End fixes the span's duration at now minus start.
func (s *Span) End() { s.Duration = time.Since(s.Start) }

// Child appends a completed child span with an explicit offset from
// this span's start and a duration — the form phase breakdowns take,
// where the phases are measured as accumulated wall time rather than
// wrapped intervals.
func (s *Span) Child(name string, offset, d time.Duration) *Span {
	c := &Span{ID: NewSpanID(), Name: name, Start: s.Start.Add(offset), Duration: d}
	s.Children = append(s.Children, c)
	return c
}

// Count returns the number of spans in the tree rooted at s.
func (s *Span) Count() int {
	n := 1
	for _, c := range s.Children {
		n += c.Count()
	}
	return n
}

// Breakdown renders the tree as one compact line for log records:
//
//	server.join 12.4ms (partition 3.1ms, sweep 7ms, stream 0.2ms)
//
// — the slow-query log's span breakdown, greppable next to the
// request line. A scatter leg is tagged with its shard, and a router's
// root with how many of its shards it asked:
//
//	router.window[1 of 3] 1.2ms (scatter[http://host2:8470] 1.1ms)
func (s *Span) Breakdown() string {
	var b strings.Builder
	s.breakdown(&b)
	return b.String()
}

func (s *Span) breakdown(b *strings.Builder) {
	b.WriteString(s.Name)
	if shard, ok := s.Attrs["shard"]; ok {
		fmt.Fprintf(b, "[%s]", shard)
	}
	if legs, ok := s.Attrs["legs"]; ok {
		fmt.Fprintf(b, "[%s of %s]", legs, s.Attrs["shards"])
	}
	fmt.Fprintf(b, " %s", s.Duration.Round(10*time.Microsecond))
	if len(s.Children) == 0 {
		return
	}
	b.WriteString(" (")
	for i, c := range s.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.breakdown(b)
	}
	b.WriteByte(')')
}

// Trace is one recorded request: its correlation ID (the X-Request-Id
// the fleet logs under), what kind of request it was, the upstream
// parent span when a router called this process, and the span tree.
type Trace struct {
	ID string
	// Kind is the request class: "join" or "window".
	Kind string
	// ParentSpan is the X-Parent-Span header value the upstream router
	// sent, or "" when the request arrived directly — the link that
	// joins this process's tree to the router's scatter span.
	ParentSpan string
	Root       *Span
}

// DefaultTraceCapacity is the trace ring size when none is configured.
const DefaultTraceCapacity = 256

// TraceStore is a bounded, concurrency-safe ring buffer of recent
// traces: every recorded request lands here, the oldest is evicted
// when the ring is full, and GET /v1/traces serves its contents. The
// bound makes tracing always-on affordable — memory is capacity ×
// tree size, independent of traffic.
type TraceStore struct {
	mu   sync.RWMutex
	ring []*Trace
	next int // ring slot the next Add writes
	n    int // filled slots, ≤ len(ring)
	byID map[string]*Trace
}

// NewTraceStore returns a store holding at most capacity traces
// (DefaultTraceCapacity when capacity ≤ 0).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{
		ring: make([]*Trace, capacity),
		byID: make(map[string]*Trace, capacity),
	}
}

// Cap returns the store's capacity.
func (ts *TraceStore) Cap() int { return len(ts.ring) }

// Len returns how many traces the store currently holds.
func (ts *TraceStore) Len() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.n
}

// Add records a trace, evicting the oldest when the ring is full. The
// trace (and its span tree) must not be mutated afterwards.
func (ts *TraceStore) Add(t *Trace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if old := ts.ring[ts.next]; old != nil {
		// Delete the evicted trace's index entry only if it still points
		// at the evicted trace — a reused request ID may have overwritten
		// it with a newer trace that is still in the ring.
		if ts.byID[old.ID] == old {
			delete(ts.byID, old.ID)
		}
	}
	ts.ring[ts.next] = t
	ts.byID[t.ID] = t
	ts.next = (ts.next + 1) % len(ts.ring)
	if ts.n < len(ts.ring) {
		ts.n++
	}
}

// Get returns the trace with the given ID, if it is still in the ring
// (evicted traces are gone — the store is a window, not an archive).
func (ts *TraceStore) Get(id string) (*Trace, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	t, ok := ts.byID[id]
	return t, ok
}

// Recent returns up to n traces, newest first (n ≤ 0 for everything
// held). The returned slice is fresh; the traces it points at are
// shared and must be treated as immutable.
func (ts *TraceStore) Recent(n int) []*Trace {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if n <= 0 || n > ts.n {
		n = ts.n
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		// next-1 is the newest slot, walking backwards.
		slot := (ts.next - i + len(ts.ring)) % len(ts.ring)
		out = append(out, ts.ring[slot])
	}
	return out
}
