package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"unijoin/client"
)

// Tracing from outside. This PR may not touch the programs, so every
// span comes from what they already expose — the "trace": true span
// tree of a join summary, GET /v1/traces/{id} for windows (found by
// the X-Request-Id the benchmark set), GET /metrics — or from the
// benchmark's own clock around a call into a package (the probes).
// Spans are kept in memory and written once, when the run ends.

// spanRec is one recorded span. Times are microseconds since the
// run's start; Parent is the ID of the span that caused it (0 = none).
type spanRec struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent,omitempty"`
	Name      string  `json:"name"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	Workload  string  `json:"workload,omitempty"`
	RequestID string  `json:"request_id,omitempty"`
}

// spanLog collects the spans of one run. It is safe for concurrent
// use (the two-goroutine store probe records from both).
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one finished span and returns its ID.
func (l *spanLog) add(parent int, name, workload, reqID string, start time.Time, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	startUS := float64(start.Sub(l.t0)) / 1e3
	l.spans = append(l.spans, spanRec{
		ID: id, Parent: parent, Name: name, Workload: workload, RequestID: reqID,
		StartUS: startUS, EndUS: startUS + float64(d)/1e3,
	})
	return id
}

// finish moves a recorded span's end to end; a parent span is opened
// before its children exist and closed once they are all in.
func (l *spanLog) finish(id int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndUS = float64(end.Sub(l.t0)) / 1e3
}

// addTree records a server-reported span tree under parent, placing
// the tree's root at base on the benchmark's clock (offsets inside a
// tree are relative to its root, so no cross-process clock is trusted).
func (l *spanLog) addTree(parent int, s *client.Span, workload, reqID string, base time.Time) {
	id := l.add(parent, s.Name, workload, reqID,
		base.Add(time.Duration(s.StartMillis*1e6)), time.Duration(s.DurationMillis*1e6))
	for _, c := range s.Children {
		l.addTree(id, c, workload, reqID, base)
	}
}

// selfTime is the aggregate of one span name within one workload.
type selfTime struct {
	Workload, Name string
	Count          int
	TotalMS        float64 // summed durations
	SelfMS         float64 // summed durations minus child coverage
}

// selfTimes computes, per (workload, span name), how much of the
// spans' time no child span covers.
func (l *spanLog) selfTimes() []selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type key struct{ workload, name string }
	agg := make(map[key]*selfTime)
	for _, s := range l.spans {
		// Union of the child intervals, clipped to the parent.
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].StartUS < l.spans[kids[b]].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(l.spans[k].StartUS, edge), min(l.spans[k].EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		k := key{s.Workload, s.Name}
		if agg[k] == nil {
			agg[k] = &selfTime{Workload: s.Workload, Name: s.Name}
		}
		agg[k].Count++
		agg[k].TotalMS += (s.EndUS - s.StartUS) / 1e3
		agg[k].SelfMS += (s.EndUS - s.StartUS - covered) / 1e3
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Workload != out[b].Workload {
			return out[a].Workload < out[b].Workload
		}
		return out[a].SelfMS > out[b].SelfMS
	})
	return out
}

// write dumps every span as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []spanRec `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fleetCounters is the subset of the fleet's /metrics the per-layer
// work counts are derived from, summed over the shard processes.
type fleetCounters struct {
	Requests      map[string]float64 // sj_requests_total by endpoint
	PairsStreamed float64            // sj_pairs_streamed_total
	FrameBytes    float64            // sj_frame_bytes_total, all frame types
	Compactions   float64            // sj_compactions_total
}

// sub returns c − o.
func (c fleetCounters) sub(o fleetCounters) fleetCounters {
	d := fleetCounters{
		Requests:      make(map[string]float64),
		PairsStreamed: c.PairsStreamed - o.PairsStreamed,
		FrameBytes:    c.FrameBytes - o.FrameBytes,
		Compactions:   c.Compactions - o.Compactions,
	}
	for ep, n := range c.Requests {
		d.Requests[ep] = n - o.Requests[ep]
	}
	return d
}

// scrapeFleet reads GET /metrics of every shard.
func scrapeFleet(ctx context.Context, fl *fleet) (fleetCounters, error) {
	total := fleetCounters{Requests: make(map[string]float64)}
	for _, p := range fl.shards {
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
		if err != nil {
			cancel()
			return total, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			return total, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		err = parseMetrics(resp.Body, func(name string, labels map[string]string, v float64) {
			switch name {
			case "sj_requests_total":
				total.Requests[labels["endpoint"]] += v
			case "sj_pairs_streamed_total":
				total.PairsStreamed += v
			case "sj_frame_bytes_total":
				total.FrameBytes += v
			case "sj_compactions_total":
				total.Compactions += v
			}
		})
		resp.Body.Close()
		cancel()
		if err != nil {
			return total, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
	}
	return total, nil
}

// parseMetrics feeds every sample line of a Prometheus text
// exposition to fn. Label values here are endpoint names and status
// codes, so quoted-string escapes need no handling beyond \" itself.
func parseMetrics(r io.Reader, fn func(name string, labels map[string]string, v float64)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("bad metrics value in %q: %w", line, err)
		}
		series := line[:sp]
		name, rest, hasLabels := strings.Cut(series, "{")
		labels := map[string]string{}
		if hasLabels {
			for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		fn(name, labels, v)
	}
	return sc.Err()
}

// opTrace is one traced primary op: the client-side timing and the
// fleet-side span tree (router.* over scatter legs over server.*, or
// a lone server.* for the direct topology).
type opTrace struct {
	sample sample
	root   *client.Span
}

// traceFetchPerClient is how many of each client's most recent window
// ops have their traces fetched: together they must fit the servers'
// default 256-entry trace ring.
const traceFetchPerClient = 100

// collectTraces gathers the fleet-side span tree of the traced
// round's ops. Joins carry theirs in the summary. Window summaries
// carry none, so the most recent ones are fetched by request ID: the
// router's tree, with each shard's own tree grafted under the scatter
// leg whose span ID the shard recorded as its parent.
func collectTraces(ctx context.Context, fl *fleet, w *workload, samples []sample) []opTrace {
	var out []opTrace
	var windows []sample
	perClient := make(map[int]int)
	for i := len(samples) - 1; i >= 0; i-- {
		s := samples[i]
		switch {
		case s.err != nil || !s.traced:
		case s.sum != nil && s.sum.Spans != nil:
			out = append(out, opTrace{sample: s, root: s.sum.Spans})
		case s.sum == nil && perClient[s.client] < traceFetchPerClient:
			perClient[s.client]++
			windows = append(windows, s)
		}
	}
	front := client.New(fl.front.url, nil)
	for _, s := range windows {
		tctx, cancel := context.WithTimeout(ctx, opTimeout)
		detail, err := front.TraceByID(tctx, s.reqID)
		if err == nil && w.routed {
			for _, p := range fl.shards {
				sd, serr := client.New(p.url, nil).TraceByID(tctx, s.reqID)
				if serr != nil {
					continue // evicted from that shard's ring
				}
				for _, leg := range detail.Root.Children {
					if leg.ID == sd.ParentSpan {
						leg.Children = append(leg.Children, sd.Root)
					}
				}
			}
		}
		cancel()
		if err == nil {
			out = append(out, opTrace{sample: s, root: detail.Root})
		}
	}
	return out
}

// traceStats is what one op's span tree says about where its time
// went, in milliseconds.
type traceStats struct {
	partition, sweep, stream float64 // slowest shard per phase
	skew                     float64 // slowest scatter leg ÷ mean leg (1 without legs)
	routerOverhead           float64 // root − slowest scatter leg (0 without legs)
	clientOverhead           float64 // client latency − root
}

// analyze reads one op's tree.
func (t opTrace) analyze() traceStats {
	st := traceStats{skew: 1}
	var legs []float64
	var walk func(s *client.Span)
	walk = func(s *client.Span) {
		if strings.HasPrefix(s.Name, "server.") {
			for _, c := range s.Children {
				switch c.Name {
				case "partition":
					st.partition = max(st.partition, c.DurationMillis)
				case "sweep", "scan":
					st.sweep = max(st.sweep, c.DurationMillis)
				case "stream":
					st.stream = max(st.stream, c.DurationMillis)
				}
			}
		}
		if s.Name == "scatter" {
			legs = append(legs, s.DurationMillis)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(t.root)
	if len(legs) > 0 {
		var sum, slowest float64
		for _, d := range legs {
			sum += d
			slowest = max(slowest, d)
		}
		if mean := sum / float64(len(legs)); mean > 0 {
			st.skew = slowest / mean
		}
		st.routerOverhead = t.root.DurationMillis - slowest
	}
	st.clientOverhead = float64(t.sample.latency)/1e6 - t.root.DurationMillis
	return st
}

// record writes the op into the span log: a client span around the
// fleet's tree, the tree centred in it (the request and reply legs of
// the client overhead cannot be told apart from outside).
func (t opTrace) record(l *spanLog, workload string) {
	id := l.add(0, "client.op", workload, t.sample.reqID, t.sample.start, t.sample.latency)
	overhead := t.sample.latency - time.Duration(t.root.DurationMillis*1e6)
	l.addTree(id, t.root, workload, t.sample.reqID, t.sample.start.Add(max(overhead, 0)/2))
}
