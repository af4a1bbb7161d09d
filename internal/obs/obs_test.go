package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Registration is idempotent: same shape returns the same metric.
	if reg.Counter("c_total", "a counter").Value() != 5 {
		t.Fatal("re-registration did not return the existing counter")
	}

	g := reg.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}

	v := reg.CounterVec("v_total", "labeled", "endpoint", "status")
	v.With("join", "200").Add(3)
	v.With("join", "404").Inc()
	v.With("window", "200").Add(2)
	if v.Total() != 6 {
		t.Fatalf("vec total = %d, want 6", v.Total())
	}
}

func TestShapeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("m", "now a gauge")
}

func TestHistogramBucketsAndRender(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("lat_seconds", "latency", []float64{0.01, 0.1, 1}, "endpoint")
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 3} {
		h.With("join").Observe(v)
	}
	if h.With("join").Count() != 5 {
		t.Fatalf("count = %d, want 5", h.With("join").Count())
	}
	if got, want := h.With("join").Sum(), 3.565; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	out := reg.Render()
	// le is inclusive: 0.01 counts into the 0.01 bucket.
	for _, line := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{endpoint="join",le="0.01"} 2`,
		`lat_seconds_bucket{endpoint="join",le="0.1"} 3`,
		`lat_seconds_bucket{endpoint="join",le="1"} 4`,
		`lat_seconds_bucket{endpoint="join",le="+Inf"} 5`,
		`lat_seconds_count{endpoint="join"} 5`,
	} {
		if !strings.Contains(out, line+"\n") && !strings.HasSuffix(out, line) {
			t.Fatalf("rendered output missing %q:\n%s", line, out)
		}
	}
}

// TestRenderIsValidExposition checks the shape every non-comment line
// must have — `series{labels} value` with no spaces inside the label
// block — plus label escaping.
func TestRenderIsValidExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total", "no labels").Inc()
	reg.GaugeVec("esc", "escaping", "path").With(`a"b\c`).Set(1)
	reg.Histogram("h_seconds", "hist", nil).Observe(0.2)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}

	out := reg.Render()
	if !strings.Contains(out, `esc{path="a\"b\\c"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparsable line %q", line)
		}
		series := line[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 && !strings.HasSuffix(series, "}") {
			t.Fatalf("unbalanced label block in %q", line)
		}
	}
}

func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.HistogramVec("h_seconds", "", nil, "k")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b"}[w%2]
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.With(key).Observe(0.001 * float64(i%7))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if n := h.With("a").Count() + h.With("b").Count(); n != workers*per {
		t.Fatalf("histogram count = %d, want %d", n, workers*per)
	}
}
