package server

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"unijoin/client"
)

// TestJoinTraceRecorded is the single-process acceptance test for the
// tracing subsystem: a traced join pinned to a known request ID must
// land in GET /v1/traces/{id} as a server.join tree with the
// partition/sweep/stream phase children, the root duration agreeing
// with the summary's elapsed_ms, and the same tree attached to the
// summary.
func TestJoinTraceRecorded(t *testing.T) {
	_, cl, _ := testServer(t, Config{Catalog: testCatalog(t, 500)})
	ctx := client.WithRequestID(context.Background(), "trace-test-join-1")

	sum, err := cl.Join(ctx, client.JoinRequest{
		Left: "roads", Right: "hydro", Algorithm: "PBSM", Trace: true,
	}, func(uint32, uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Spans == nil {
		t.Fatal("summary.spans missing with trace: true")
	}
	if sum.Spans.Name != "server.join" {
		t.Fatalf("summary root span = %q, want server.join", sum.Spans.Name)
	}

	det, err := cl.TraceByID(ctx, "trace-test-join-1")
	if err != nil {
		t.Fatalf("GET /v1/traces/{id}: %v", err)
	}
	if det.Kind != "join" || det.Root == nil {
		t.Fatalf("trace detail = %+v, want a join trace with a root", det)
	}
	phases := map[string]bool{}
	for _, c := range det.Root.Children {
		phases[c.Name] = true
		if c.DurationMillis < 0 {
			t.Fatalf("phase %s has negative duration %v", c.Name, c.DurationMillis)
		}
	}
	for _, want := range []string{"partition", "sweep", "stream"} {
		if !phases[want] {
			t.Fatalf("trace children = %v, missing phase %q", phases, want)
		}
	}
	// The root span is created and ended around the same interval the
	// summary's elapsed_ms measures; they must agree.
	diff := det.Root.DurationMillis - sum.ElapsedMillis
	if diff < -1 || diff > 1 {
		t.Fatalf("trace root %vms vs summary elapsed %vms: drifted by %vms",
			det.Root.DurationMillis, sum.ElapsedMillis, diff)
	}
	if det.Root.Attrs["algorithm"] != "PBSM" || det.Root.Attrs["engine"] != "simulated" {
		t.Fatalf("root attrs = %v, want algorithm=PBSM engine=simulated", det.Root.Attrs)
	}

	// Listing includes the trace, newest first.
	sums, err := cl.Traces(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 || sums[0].ID != "trace-test-join-1" {
		t.Fatalf("Traces(10) = %v, want trace-test-join-1 first", sums)
	}
}

// TestTraceAlwaysOnAndUnknown404: untraced requests still record a
// trace (the flag only controls the summary attachment), and unknown
// IDs 404.
func TestTraceAlwaysOnAndUnknown404(t *testing.T) {
	_, cl, _ := testServer(t, Config{Catalog: testCatalog(t, 200)})
	ctx := client.WithRequestID(context.Background(), "trace-test-untraced")

	sum, err := cl.JoinCount(ctx, client.JoinRequest{Left: "roads", Right: "hydro"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Spans != nil {
		t.Fatal("summary.spans present without the trace flag")
	}
	if _, err := cl.TraceByID(ctx, "trace-test-untraced"); err != nil {
		t.Fatalf("untraced request did not record a trace: %v", err)
	}

	// A failed query records its tree too, the error on the root; one
	// refused before it ran has no children.
	failCtx := client.WithRequestID(context.Background(), "trace-test-failed")
	if _, err := cl.JoinCount(failCtx, client.JoinRequest{Left: "nope", Right: "hydro"}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("join on an unknown relation: %v, want not found", err)
	}
	det, err := cl.TraceByID(ctx, "trace-test-failed")
	if err != nil {
		t.Fatalf("failed join did not record a trace: %v", err)
	}
	if det.Root.Attrs["error"] == "" || len(det.Root.Children) != 0 {
		t.Fatalf("failed join's root = %+v, want an error attr and no children", det.Root)
	}

	_, err = cl.TraceByID(ctx, "never-recorded")
	var apiErr *client.APIError
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != client.CodeNotFound {
		t.Fatalf("TraceByID(never-recorded) = %v, want a not_found APIError", err)
	}
}

// TestWindowTraceRecorded mirrors the join test for window queries:
// the scan/stream tree lands in the store under the request ID.
func TestWindowTraceRecorded(t *testing.T) {
	_, cl, _ := testServer(t, Config{Catalog: testCatalog(t, 300)})
	ctx := client.WithRequestID(context.Background(), "trace-test-window")

	if _, err := cl.Window(ctx, client.WindowRequest{
		Relation: "roads",
		Window:   &client.Rect{XLo: 100, YLo: 100, XHi: 400, YHi: 400},
	}, func(client.RecordOut) {}); err != nil {
		t.Fatal(err)
	}
	det, err := cl.TraceByID(ctx, "trace-test-window")
	if err != nil {
		t.Fatal(err)
	}
	if det.Kind != "window" || det.Root.Name != "server.window" {
		t.Fatalf("window trace = kind %q root %q, want window/server.window", det.Kind, det.Root.Name)
	}
	names := map[string]bool{}
	for _, c := range det.Root.Children {
		names[c.Name] = true
	}
	if !names["scan"] || !names["stream"] {
		t.Fatalf("window trace children = %v, want scan and stream", names)
	}
}

// lockedBuffer is a log sink the handler goroutines may write to while
// the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// warnLines returns the Warn lines logged so far.
func (b *lockedBuffer) warnLines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, line := range strings.Split(b.buf.String(), "\n") {
		if strings.Contains(line, "level=WARN") {
			out = append(out, line)
		}
	}
	return out
}

// TestSlowQueryLogged: under a SlowQuery threshold below a join's wall
// time the server logs exactly one Warn line for it, "slow query", whose
// breakdown is the span tree from server.join down; under a threshold
// above it, none.
func TestSlowQueryLogged(t *testing.T) {
	cat := testCatalog(t, 500)
	for _, c := range []struct {
		threshold time.Duration
		want      int
	}{
		{time.Nanosecond, 1},
		{time.Hour, 0},
	} {
		var logged lockedBuffer
		_, cl, _ := testServer(t, Config{Catalog: cat, SlowQuery: c.threshold, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
		if _, err := cl.JoinCount(context.Background(), client.JoinRequest{Left: "roads", Right: "hydro"}); err != nil {
			t.Fatal(err)
		}
		warns := logged.warnLines()
		if len(warns) != c.want {
			t.Fatalf("threshold %v: %d Warn lines, want %d:\n%s", c.threshold, len(warns), c.want, strings.Join(warns, "\n"))
		}
		for _, line := range warns {
			if !strings.Contains(line, `msg="slow query"`) || !strings.Contains(line, "breakdown=\"server.join ") {
				t.Fatalf("threshold %v: the Warn line is not a slow-query breakdown of server.join:\n%s", c.threshold, line)
			}
		}
	}
}
