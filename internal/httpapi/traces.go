package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"unijoin/client"
	"unijoin/internal/obs"
)

// ParentSpanHeader carries the upstream caller's span ID router →
// shard, extending the X-Request-Id correlation into a span tree: the
// router sends each scatter leg's span ID here, and the shard records
// it as its trace's parent, so the two processes' trees join on it.
const ParentSpanHeader = "X-Parent-Span"

// maxParentSpanLen bounds span IDs accepted from the wire, mirroring
// the request-ID rule: anything longer is dropped rather than
// amplified through the trace store.
const maxParentSpanLen = 64

// ParentSpan returns the request's X-Parent-Span header, or "" when
// absent or abusive.
func ParentSpan(r *http.Request) string {
	if id := r.Header.Get(ParentSpanHeader); len(id) <= maxParentSpanLen {
		return id
	}
	return ""
}

// defaultTraceListing caps GET /v1/traces responses when the client
// doesn't ask for a size.
const defaultTraceListing = 50

// SpanDTO converts a span tree to its wire form, with every start
// rendered as the offset in milliseconds from root's start. Callers
// pass the tree root; the recursion threads the base time down.
func SpanDTO(root *obs.Span) *client.Span {
	return spanDTO(root, root.Start)
}

func spanDTO(s *obs.Span, base time.Time) *client.Span {
	d := &client.Span{
		ID:             s.ID,
		Name:           s.Name,
		StartMillis:    float64(s.Start.Sub(base).Microseconds()) / 1000,
		DurationMillis: float64(s.Duration.Microseconds()) / 1000,
	}
	if len(s.Attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			d.Attrs[k] = v
		}
	}
	for _, c := range s.Children {
		d.Children = append(d.Children, spanDTO(c, base))
	}
	return d
}

// PhaseTrace folds a join's span tree into the summary's flat
// partition/sweep/stream breakdown: per phase, the longest span of that
// name anywhere in the tree. A server's tree holds one of each; a
// router's holds one per shard under its scatter legs, and since the
// shards run concurrently the slowest is what the caller waited for —
// the way ElapsedMillis merges.
func PhaseTrace(root *obs.Span) *client.PhaseTrace {
	var t client.PhaseTrace
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		ms := float64(s.Duration) / float64(time.Millisecond)
		switch s.Name {
		case "partition":
			t.PartitionMillis = max(t.PartitionMillis, ms)
		case "sweep":
			t.SweepMillis = max(t.SweepMillis, ms)
		case "stream":
			t.StreamMillis = max(t.StreamMillis, ms)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return &t
}

// TracesHandler serves GET /v1/traces: recent trace summaries, newest
// first, at most ?n= of them (default defaultTraceListing). Both
// serving layers mount this one handler, so a client cannot tell a
// router's listing from a shard's by shape.
func TracesHandler(store *obs.TraceStore) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := defaultTraceListing
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				WriteError(w, &client.APIError{
					Status: http.StatusBadRequest, Code: client.CodeBadRequest,
					Message: "bad n: want a positive integer",
				})
				return
			}
			n = parsed
		}
		traces := store.Recent(n)
		out := make([]client.TraceSummary, 0, len(traces))
		for _, t := range traces {
			sum := client.TraceSummary{
				ID:             t.ID,
				Kind:           t.Kind,
				Name:           t.Root.Name,
				Start:          t.Root.Start.Format(time.RFC3339Nano),
				DurationMillis: float64(t.Root.Duration.Microseconds()) / 1000,
				Spans:          t.Root.Count(),
			}
			if len(t.Root.Attrs) > 0 {
				sum.Attrs = t.Root.Attrs // stored traces are immutable
			}
			out = append(out, sum)
		}
		WriteJSON(w, out)
	}
}

// TraceByIDHandler serves GET /v1/traces/{id}: the full span tree, or
// 404 for an ID the bounded ring no longer (or never) held.
func TraceByIDHandler(store *obs.TraceStore) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		t, ok := store.Get(id)
		if !ok {
			WriteError(w, &client.APIError{
				Status: http.StatusNotFound, Code: client.CodeNotFound,
				Message: "no trace " + strconv.Quote(id) + " in the recent window (bounded ring; it may have been evicted)",
			})
			return
		}
		WriteJSON(w, client.TraceDetail{
			ID:             t.ID,
			Kind:           t.Kind,
			ParentSpan:     t.ParentSpan,
			Start:          t.Root.Start.Format(time.RFC3339Nano),
			DurationMillis: float64(t.Root.Duration.Microseconds()) / 1000,
			Root:           SpanDTO(t.Root),
		})
	}
}
