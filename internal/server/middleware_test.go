package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
)

// get issues a plain HTTP request against the test server and returns
// the response status.
func get(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMiddlewareStatusCounters pins the status → counter mapping: 4xx
// and 5xx responses increment the errors counter, while a 504 (a
// canceled query) increments only the canceled counter — load
// shedding must not page anyone.
func TestMiddlewareStatusCounters(t *testing.T) {
	// Large enough that a 1ms-timeout join reliably trips the
	// cancellation polling mid-sort rather than finishing early.
	cat := testCatalog(t, 30000)
	srv, cl, url := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	// A 404 and a 400 are errors.
	if got := get(t, url+"/v1/nope"); got != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", got)
	}
	resp, err := http.Post(url+"/v1/join", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := srv.front.Errors.Value(); got != 2 {
		t.Fatalf("errors = %d after a 404 and a 400, want 2", got)
	}
	if got := srv.front.Canceled.Value(); got != 0 {
		t.Fatalf("canceled = %d, want 0", got)
	}

	// A pre-expired request timeout forces a 504: canceled increments,
	// errors must not. Count-only keeps the response unstarted until
	// the query finishes, so the cancellation is always a status, not
	// a mid-stream error line.
	_, err = cl.JoinCount(ctx, client.JoinRequest{
		Left: "roads", Right: "hydro", TimeoutMillis: 1, Algorithm: "SSSJ",
	})
	if err == nil {
		t.Fatal("want a canceled error from a 1ms join")
	}
	if got := srv.front.Canceled.Value(); got != 1 {
		t.Fatalf("canceled = %d after a 504, want 1", got)
	}
	if got := srv.front.Errors.Value(); got != 2 {
		t.Fatalf("errors = %d after a 504, want still 2 (504 is not an error)", got)
	}

	// The per-status counter families carry the same story.
	if got := srv.front.Requests.With("join", "504").Value(); got != 1 {
		t.Fatalf(`requests{join,504} = %d, want 1`, got)
	}
	if got := srv.front.Requests.With("notfound", "404").Value(); got != 1 {
		t.Fatalf(`requests{notfound,404} = %d, want 1`, got)
	}
}

// TestMiddlewareHistogramCounts verifies every request is observed by
// the latency histogram exactly once, across concurrent load (run
// with -race this also proves the metrics path is race-clean).
func TestMiddlewareHistogramCounts(t *testing.T) {
	cat := testCatalog(t, 200)
	srv, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := cl.JoinCount(ctx, client.JoinRequest{
					Left: "roads", Right: "hydro", Algorithm: "PQ",
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const n = workers * perWorker
	if got := srv.front.Latency.With("join").Count(); got != n {
		t.Fatalf("request histogram observed %d joins, want %d", got, n)
	}
	if got := srv.front.Requests.With("join", "200").Value(); got != n {
		t.Fatalf(`requests{join,200} = %d, want %d`, got, n)
	}
	if got := srv.metrics.joinLatency.With("PQ").Count(); got != n {
		t.Fatalf("join latency histogram observed %d, want %d", got, n)
	}
	if got := srv.metrics.phase.With("sweep").Count(); got != n {
		t.Fatalf("sweep phase histogram observed %d, want %d", got, n)
	}
	if fl := srv.front.InFlight.Value(); fl != 0 {
		t.Fatalf("in-flight gauge = %v after quiesce, want 0", fl)
	}
}

// TestMetricsEndpoint scrapes GET /metrics and checks the exposition
// carries the request series with real observations, that its family
// inventory is exactly the server's (a family added later must be
// listed here on purpose), and that /v1/stats carries no field
// without a reader.
func TestMetricsEndpoint(t *testing.T) {
	cat := testCatalog(t, 200)
	_, cl, url := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var body bytes.Buffer
	var families []string
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line + "\n")
		if line == `sj_request_seconds_count{endpoint="join"} 1` {
			found = true
		}
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families = append(families, f[2])
		}
		// Every non-comment line must be "name value".
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if got := len(strings.Fields(line)); got != 2 {
			t.Fatalf("bad exposition line %q: %d fields", line, got)
		}
	}
	if !found {
		t.Fatalf("missing join request histogram count; body:\n%s", body.String())
	}
	for _, want := range []string{"sj_join_seconds_bucket{algorithm=\"PQ\"", "sj_joins_total 1"} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("exposition missing %q; body:\n%s", want, body.String())
		}
	}
	slices.Sort(families)
	// Labeled families with no series yet (sj_ingest_records_total,
	// sj_delta_records) render nothing, so they are absent after a join.
	if want := []string{
		"sj_appends_total", "sj_canceled_total", "sj_compactions_total",
		"sj_errors_total", "sj_ingest_seconds", "sj_join_phase_seconds",
		"sj_join_seconds", "sj_joins_total", "sj_metric_series_dropped_total",
		"sj_pairs_streamed_total", "sj_prepared_builds_total",
		"sj_records_streamed_total", "sj_request_seconds",
		"sj_requests_in_flight", "sj_requests_total", "sj_windows_total",
	}; !slices.Equal(families, want) {
		t.Fatalf("/metrics families =\n%q\nwant\n%q", families, want)
	}

	statsResp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"join_latency_ewma_ms", "workload"} {
		if _, ok := stats[gone]; ok {
			t.Fatalf("/v1/stats carries %q: %v", gone, stats)
		}
	}
}

// TestRequestIDEcho verifies the middleware echoes a caller's
// X-Request-Id and invents one otherwise.
func TestRequestIDEcho(t *testing.T) {
	cat := testCatalog(t, 10)
	_, _, url := testServer(t, Config{Catalog: cat})

	req, _ := http.NewRequest(http.MethodGet, url+"/v1/healthz", nil)
	req.Header.Set(httpapi.RequestIDHeader, "abc123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(httpapi.RequestIDHeader); got != "abc123" {
		t.Fatalf("echoed request id = %q, want abc123", got)
	}

	resp2, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(httpapi.RequestIDHeader); len(got) != 16 {
		t.Fatalf("generated request id = %q, want 16 hex chars", got)
	}
}

// TestStatusRecorderUnwrap pins the satellite fix: the recorder must
// expose the underlying writer so http.NewResponseController can
// reach Flush through the wrapper.
func TestStatusRecorderUnwrap(t *testing.T) {
	rr := httptest.NewRecorder()
	rec := &httpapi.StatusRecorder{ResponseWriter: rr}
	rc := http.NewResponseController(rec)
	fmt.Fprint(rec, "hello")
	if err := rc.Flush(); err != nil {
		t.Fatalf("ResponseController.Flush through StatusRecorder: %v", err)
	}
	if !rr.Flushed {
		t.Fatal("flush did not reach the underlying writer")
	}
	if rec.Status() != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Status())
	}
}

// TestJoinTrace verifies the per-query phase trace: present (with a
// nonzero sweep) when requested, absent otherwise.
func TestJoinTrace(t *testing.T) {
	cat := testCatalog(t, 400)
	srv, cl, _ := testServer(t, Config{Catalog: cat})
	ctx := context.Background()

	sum, err := cl.JoinCount(ctx, client.JoinRequest{
		Left: "roads", Right: "hydro", Algorithm: "SSSJ", Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trace == nil {
		t.Fatal("summary.trace missing with trace: true")
	}
	if sum.Trace.SweepMillis <= 0 || sum.Trace.PartitionMillis <= 0 {
		t.Fatalf("SSSJ trace = %+v, want positive partition and sweep", sum.Trace)
	}
	if sum.Trace.PartitionMillis+sum.Trace.SweepMillis > sum.ElapsedMillis+1 {
		t.Fatalf("phases (%v + %v) exceed elapsed %v", sum.Trace.PartitionMillis,
			sum.Trace.SweepMillis, sum.ElapsedMillis)
	}

	sum, err = cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trace != nil {
		t.Fatalf("summary.trace = %+v without trace flag, want absent", sum.Trace)
	}

	// Either way the phase histograms observed both joins.
	if got := srv.metrics.phase.With("partition").Count(); got != 2 {
		t.Fatalf("partition phase observations = %d, want 2", got)
	}

	// The SSSJ join's latency reached its algorithm's histogram.
	if got := srv.metrics.joinLatency.With("SSSJ").Count(); got != 1 {
		t.Fatalf(`sj_join_seconds_count{algorithm="SSSJ"} = %d, want 1`, got)
	}
}

// TestSharedRegistry verifies an externally-supplied registry receives
// the server's families — the wiring sjserved-style embedders rely on.
func TestSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cat := testCatalog(t, 10)
	_, cl, _ := testServer(t, Config{Catalog: cat, Registry: reg})
	if _, err := cl.JoinCount(context.Background(), client.JoinRequest{Left: "roads", Right: "hydro"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for !strings.Contains(reg.Render(), "sj_joins_total 1") {
		if time.Now().After(deadline) {
			t.Fatalf("shared registry missing join counter:\n%s", reg.Render())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
