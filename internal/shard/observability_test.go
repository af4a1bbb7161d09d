package shard_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/shard"
)

// obsFleet boots a 3-shard fleet over two uniform relations and
// returns the front client and router.
func obsFleet(t *testing.T) (*client.Client, *shard.Router) {
	t.Helper()
	rels := map[string][]unijoin.Record{
		"a": datagen.Uniform(7, 1200, universe, 25),
		"b": datagen.Uniform(8, 900, universe, 25),
	}
	plan, err := shard.PlanFromBoundaries(universe, []unijoin.Coord{333, 666})
	if err != nil {
		t.Fatal(err)
	}
	cl, router, _ := startFleet(t, plan, []string{"a", "b"}, rels, true)
	return cl, router
}

// TestTraceAcrossFleet is the acceptance test for per-query phase
// traces: a join with "trace": true through the full client → router
// → shard path returns partition/sweep/stream wall times, and the
// flag off returns no trace.
func TestTraceAcrossFleet(t *testing.T) {
	cl, _ := obsFleet(t)
	ctx := context.Background()

	sum, err := cl.Join(ctx, client.JoinRequest{
		Left: "a", Right: "b", Algorithm: "SSSJ", Trace: true,
	}, func(uint32, uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trace == nil {
		t.Fatal("summary.trace missing with trace: true through the router")
	}
	if sum.Trace.SweepMillis <= 0 {
		t.Fatalf("fleet trace = %+v, want positive sweep time", sum.Trace)
	}
	if sum.Trace.PartitionMillis <= 0 {
		t.Fatalf("fleet SSSJ trace = %+v, want positive partition time (external sorts)", sum.Trace)
	}
	// The router merges per phase by max across shards, so no phase
	// can exceed the slowest shard's elapsed time.
	if sum.Trace.SweepMillis > sum.ElapsedMillis+1 {
		t.Fatalf("sweep %vms exceeds elapsed %vms", sum.Trace.SweepMillis, sum.ElapsedMillis)
	}

	sum, err = cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trace != nil {
		t.Fatalf("summary.trace = %+v without the flag, want absent", sum.Trace)
	}
}

// sampleValue returns the value of the exposition sample named series
// (name plus label block, exactly as rendered) in text.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no sample %q:\n%s", series, text)
	return 0
}

// scrape returns the body of GET base/metrics.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestRouterShardStats verifies the router's extended /v1/stats: one
// ShardStat per shard with its scatter counters moving, and each
// shard's latency recorded on both sides of the scatter once traffic
// has flowed: the router's sj_shard_scatter_seconds for the leg and
// the shard's own sj_join_seconds for the join.
func TestRouterShardStats(t *testing.T) {
	cl, router := obsFleet(t)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 3 || len(stats.ShardStats) != 3 {
		t.Fatalf("stats shards = %d, shard_stats = %d, want 3 and 3", stats.Shards, len(stats.ShardStats))
	}
	for i, ss := range stats.ShardStats {
		if ss.Endpoint != router.Endpoints()[i] {
			t.Fatalf("shard %d endpoint = %q, want %q", i, ss.Endpoint, router.Endpoints()[i])
		}
		if ss.Stripe == nil {
			t.Fatalf("shard %d reports no stripe", i)
		}
		if ss.ScatterRequests == 0 {
			t.Fatalf("shard %d scatter_requests = 0 after traffic", i)
		}
		if ss.Requests == 0 {
			t.Fatalf("shard %d self-reported requests = 0", i)
		}
		if ss.ScatterErrors != 0 {
			t.Fatalf("shard %d scatter_errors = %d on a healthy fleet", i, ss.ScatterErrors)
		}
		series := `sj_shard_scatter_seconds_count{shard="` + ss.Endpoint + `"}`
		if v := sampleValue(t, router.Registry().Render(), series); v <= 0 {
			t.Fatalf("router %s = %v, want > 0", series, v)
		}
		if v := sampleValue(t, scrape(t, ss.Endpoint), `sj_join_seconds_count{algorithm="PQ"}`); v <= 0 {
			t.Fatalf(`shard %d sj_join_seconds_count{algorithm="PQ"} = %v, want > 0`, i, v)
		}
	}
}

// TestRouterMetricsEndpoint scrapes the router's /metrics and checks
// the per-shard scatter families are present, well-formed, and
// populated for every shard, that its family inventory is exactly the
// router's (a family added later must be listed here on purpose), and
// that /v1/stats carries no field without a reader.
func TestRouterMetricsEndpoint(t *testing.T) {
	rels := map[string][]unijoin.Record{
		"a": datagen.Uniform(7, 600, universe, 25),
		"b": datagen.Uniform(8, 500, universe, 25),
	}
	plan, err := shard.PlanFromBoundaries(universe, []unijoin.Coord{500})
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, plan.Shards())
	for i := range urls {
		urls[i] = startShard(t, plan.Interval(i), []string{"a", "b"}, rels, true)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := shard.NewService(shard.ServiceConfig{Router: router, Logger: discard()})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	front := ts.URL
	cl := client.New(front, nil)

	if _, err := cl.JoinCount(context.Background(), client.JoinRequest{Left: "a", Right: "b"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(front + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var body strings.Builder
	var families []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line + "\n")
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families = append(families, f[2])
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if got := len(strings.Fields(line)); got != 2 {
			t.Fatalf("bad exposition line %q: %d fields", line, got)
		}
	}
	for _, shardURL := range urls {
		series := `sj_shard_scatter_seconds_count{shard="` + shardURL + `"}`
		if v := sampleValue(t, body.String(), series); v <= 0 {
			t.Fatalf("router %s = %v, want > 0", series, v)
		}
	}
	slices.Sort(families)
	// sj_shard_errors_total has no series on a healthy fleet, so it
	// renders nothing.
	if want := []string{
		"sj_canceled_total", "sj_errors_total", "sj_metric_series_dropped_total",
		"sj_request_seconds", "sj_requests_in_flight", "sj_requests_total",
		"sj_shard_in_flight", "sj_shard_scatter_seconds",
	}; !slices.Equal(families, want) {
		t.Fatalf("router /metrics families =\n%q\nwant\n%q", families, want)
	}
	if !strings.Contains(body.String(), `sj_requests_total{endpoint="join",status="200"} 1`) {
		t.Fatalf("router exposition missing its own request counter:\n%s", body.String())
	}

	// The router echoes a caller's request ID, the same contract as a
	// single sjserved (and it forwards the ID to every shard call).
	req, _ := http.NewRequest(http.MethodGet, front+"/v1/stats", nil)
	req.Header.Set("X-Request-Id", "ride2e")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "ride2e" {
		t.Fatalf("router echoed request id %q, want ride2e", got)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"join_latency_ewma_ms", "workload"} {
		if _, ok := stats[gone]; ok {
			t.Fatalf("router /v1/stats carries %q: %v", gone, stats)
		}
	}
	shardStats, _ := stats["shard_stats"].([]any)
	if len(shardStats) != len(urls) {
		t.Fatalf("router /v1/stats shard_stats = %v, want %d entries", stats["shard_stats"], len(urls))
	}
	for i, ss := range shardStats {
		if _, ok := ss.(map[string]any)["latency_ewma_ms"]; ok {
			t.Fatalf("shard_stats[%d] carries latency_ewma_ms: %v", i, ss)
		}
	}
}
