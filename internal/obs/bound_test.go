package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSeriesBound drives a labeled counter family and a labeled
// histogram family past maxSeries with distinct caller strings, from
// several goroutines at once: each keeps a bounded number of entries,
// every refused lookup is counted, the series that existed before the
// flood stay exact, and the exposition stays well formed. This is
// what holds the cardinality invariant now that no analyzer follows
// label data flows.
func TestSeriesBound(t *testing.T) {
	const extra, workers = 300, 4
	reg := NewRegistry()
	vec := reg.CounterVec("flood_total", "flooded", "who", "what")
	hist := reg.HistogramVec("flood_seconds", "flooded", []float64{1}, "who")

	vec.With("early", "bird").Add(7)
	hist.With("early").Observe(0.5)
	dropped0 := seriesDropped.Value()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < maxSeries+extra; i += workers {
				k := fmt.Sprintf("k%d", i)
				vec.With(k, "x").Inc()
				hist.With(k).Observe(2)
			}
		}()
	}
	wg.Wait()

	// Each map held one entry before the flood, so exactly extra+1 of
	// the maxSeries+extra new keys overflowed in each of the two.
	const over = extra + 1
	if got := seriesDropped.Value() - dropped0; got != 2*over {
		t.Fatalf("sj_metric_series_dropped_total moved by %d, want %d", got, 2*over)
	}
	for name, n := range map[string]int{
		"counter family":   len(vec.f.children),
		"histogram family": len(hist.f.children),
	} {
		if n != maxSeries+1 {
			t.Errorf("%s holds %d entries, want maxSeries+1 = %d", name, n, maxSeries+1)
		}
	}
	if got := vec.With(otherLabel, otherLabel).Value(); got != over {
		t.Errorf("counter overflow series = %d, want %d", got, over)
	}
	if got := hist.With(otherLabel).Count(); got != over {
		t.Errorf("histogram overflow series count = %d, want %d", got, over)
	}

	// Pre-existing series are untouched, and still reachable.
	vec.With("early", "bird").Inc()
	if got := vec.With("early", "bird").Value(); got != 8 {
		t.Errorf("pre-existing counter = %d, want 8", got)
	}
	if got := hist.With("early").Count(); got != 1 {
		t.Errorf("pre-existing histogram count = %d, want 1", got)
	}

	// The exposition parses the way the CI smoke checks it: every
	// sample line is exactly "name{labels} value".
	text := reg.Render()
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	for _, want := range []string{
		`flood_total{who="early",what="bird"} 8`,
		fmt.Sprintf(`flood_total{who="_other",what="_other"} %d`, over),
		fmt.Sprintf(`flood_seconds_count{who="_other"} %d`, over),
		fmt.Sprintf("sj_metric_series_dropped_total %d\n", seriesDropped.Value()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestFreshRegistryExposesDropCounter: the overflow counter is the one
// series a registry has before anything registers, so a scrape can
// alert on it moving.
func TestFreshRegistryExposesDropCounter(t *testing.T) {
	text := NewRegistry().Render()
	if strings.Count(text, "\n") != 3 || !strings.Contains(text, "# TYPE sj_metric_series_dropped_total counter\nsj_metric_series_dropped_total ") {
		t.Fatalf("fresh registry renders:\n%s", text)
	}
}
