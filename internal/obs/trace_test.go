package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func mkTrace(id string) *Trace {
	root := StartSpan("server.join")
	root.Duration = 5 * time.Millisecond
	return &Trace{ID: id, Kind: "join", Root: root}
}

func TestTraceStoreAddGet(t *testing.T) {
	ts := NewTraceStore(4)
	if ts.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", ts.Cap())
	}
	tr := mkTrace("t1")
	ts.Add(tr)
	got, ok := ts.Get("t1")
	if !ok || got != tr {
		t.Fatalf("Get(t1) = %v, %v; want the stored trace", got, ok)
	}
	if _, ok := ts.Get("nope"); ok {
		t.Fatal("Get(nope) found a trace that was never stored")
	}
	if ts.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", ts.Len())
	}
}

func TestTraceStoreEvictionOrder(t *testing.T) {
	ts := NewTraceStore(3)
	for i := 0; i < 5; i++ {
		ts.Add(mkTrace(fmt.Sprintf("t%d", i)))
	}
	if ts.Len() != 3 {
		t.Fatalf("Len() = %d after 5 adds into capacity 3, want 3", ts.Len())
	}
	// t0 and t1 were evicted oldest-first; t2..t4 remain.
	for _, id := range []string{"t0", "t1"} {
		if _, ok := ts.Get(id); ok {
			t.Fatalf("Get(%s) found an evicted trace", id)
		}
	}
	for _, id := range []string{"t2", "t3", "t4"} {
		if _, ok := ts.Get(id); !ok {
			t.Fatalf("Get(%s) lost a trace that should still be held", id)
		}
	}
	recent := ts.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("Recent(0) returned %d traces, want 3", len(recent))
	}
	for i, want := range []string{"t4", "t3", "t2"} { // newest first
		if recent[i].ID != want {
			t.Fatalf("Recent(0)[%d].ID = %s, want %s", i, recent[i].ID, want)
		}
	}
	if got := ts.Recent(2); len(got) != 2 || got[0].ID != "t4" || got[1].ID != "t3" {
		t.Fatalf("Recent(2) = %v, want [t4 t3]", got)
	}
}

// TestTraceStoreReusedID covers the index-consistency corner: when a
// request ID is recorded twice (a client pinning X-Request-Id), the
// older entry's eviction must not delete the newer trace's index
// entry.
func TestTraceStoreReusedID(t *testing.T) {
	ts := NewTraceStore(3)
	ts.Add(mkTrace("dup")) // slot 0, evicted first
	ts.Add(mkTrace("x"))
	newer := mkTrace("dup")
	ts.Add(newer)        // same ID, still in the ring after the eviction below
	ts.Add(mkTrace("y")) // evicts slot 0 (the old "dup")
	got, ok := ts.Get("dup")
	if !ok || got != newer {
		t.Fatalf("Get(dup) = %v, %v; want the newer trace to survive the older one's eviction", got, ok)
	}
}

// TestTraceStoreConcurrent hammers the store from concurrent writers
// and readers; run under -race this is the data-race check for the
// always-on tracing path.
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ts.Add(mkTrace(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, tr := range ts.Recent(8) {
					if tr == nil {
						t.Error("Recent returned a nil trace")
						return
					}
					ts.Get(tr.ID)
				}
				ts.Len()
			}
		}()
	}
	wg.Wait()
	if ts.Len() != 16 {
		t.Fatalf("Len() = %d after 800 adds into capacity 16, want 16", ts.Len())
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("server.join")
	root.SetAttr("algorithm", "PBSM")
	root.Duration = 10 * time.Millisecond
	root.Child("partition", 0, 3*time.Millisecond)
	root.Child("sweep", 3*time.Millisecond, 7*time.Millisecond)
	if root.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", root.Count())
	}
	if got := root.Children[1].Start.Sub(root.Start); got != 3*time.Millisecond {
		t.Fatalf("sweep offset = %v, want 3ms", got)
	}
	b := root.Breakdown()
	for _, want := range []string{"server.join 10ms", "partition 3ms", "sweep 7ms"} {
		if !strings.Contains(b, want) {
			t.Fatalf("Breakdown() = %q, missing %q", b, want)
		}
	}
}

func TestBreakdownShardAttr(t *testing.T) {
	root := &Span{ID: NewSpanID(), Name: "router.join", Start: time.Now(), Duration: 4 * time.Millisecond}
	c := root.Child("scatter", 0, 4*time.Millisecond)
	c.SetAttr("shard", "http://s1")
	b := root.Breakdown()
	if !strings.Contains(b, "scatter[http://s1]") {
		t.Fatalf("Breakdown() = %q, want the scatter span tagged with its shard", b)
	}
	root.SetAttr("legs", "1").SetAttr("shards", "3")
	if b := root.Breakdown(); !strings.HasPrefix(b, "router.join[1 of 3] 4ms (scatter[http://s1]") {
		t.Fatalf("Breakdown() = %q, want the root tagged with the legs it asked", b)
	}
}

func TestNewSpanID(t *testing.T) {
	a, b := NewSpanID(), NewSpanID()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("span IDs %q, %q; want 8 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two fresh span IDs collided: %q", a)
	}
}
