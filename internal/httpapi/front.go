package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"unijoin/client"
	"unijoin/internal/obs"
	"unijoin/internal/wire"
)

// Front is the request plumbing a serving front runs around its
// handlers — request IDs, the per-endpoint counters and log line,
// query deadlines, failure accounting, the trace ring and the
// slow-query line. sjserved (internal/server) and sjrouter
// (internal/shard.Service) each build one with NewFront, which
// registers the front's seven metric families on the owner's registry,
// so one /metrics serves them beside the owner's other families and
// the owner reads what it reports (GET /v1/stats) from these handles.
type Front struct {
	Log *slog.Logger
	// Timeout is the front's ceiling on each query; a request's own
	// timeout_ms may shorten it but never extend it. Zero: no ceiling.
	Timeout time.Duration
	// Traces receives every query's span tree; SlowQuery, when
	// positive, is the root duration from which a query also gets a
	// Warn line with its breakdown.
	Traces    *obs.TraceStore
	SlowQuery time.Duration

	// Requests is labeled by endpoint and status, the three-digit code
	// as text, so a scrape can tell join 200s from join 504s without a
	// cardinality explosion.
	Requests *obs.CounterVec   // sj_requests_total{endpoint,status}
	Latency  *obs.HistogramVec // sj_request_seconds{endpoint}
	InFlight *obs.Gauge        // sj_requests_in_flight
	// Errors counts failed requests; Canceled counts timeouts and
	// client disconnects apart from them — load shedding, not bugs —
	// so the errors counter stays alertable.
	Errors   *obs.Counter // sj_errors_total
	Canceled *obs.Counter // sj_canceled_total
	// Frames and FrameBytes count what ObserveFrames is told about:
	// frames and payload+header bytes written to negotiated frame
	// streams, by frame type (pairs/records/summary/error/end).
	Frames     *obs.CounterVec // sj_frames_total{type}
	FrameBytes *obs.CounterVec // sj_frame_bytes_total{type}
}

// NewFront completes f — whose Log and Traces the caller has set, and
// Timeout and SlowQuery when it wants them — with the front's metric
// families, registered on reg.
func NewFront(reg *obs.Registry, f Front) Front {
	f.Requests = reg.CounterVec("sj_requests_total",
		"HTTP requests served, by endpoint and status code.",
		"endpoint", "status")
	f.Latency = reg.HistogramVec("sj_request_seconds",
		"HTTP request wall time in seconds, by endpoint.",
		nil, "endpoint")
	f.InFlight = reg.Gauge("sj_requests_in_flight",
		"Requests currently being served.")
	f.Errors = reg.Counter("sj_errors_total",
		"Failed requests, excluding cancellations.")
	f.Canceled = reg.Counter("sj_canceled_total",
		"Requests canceled by timeout or client disconnect.")
	f.Frames = reg.CounterVec("sj_frames_total",
		"Binary transport frames written, by frame type.",
		"type")
	f.FrameBytes = reg.CounterVec("sj_frame_bytes_total",
		"Binary transport bytes written (headers included), by frame type.",
		"type")
	return f
}

// Instrument is the logging + metrics middleware: it ensures a request
// ID (honoring one sent by a router upstream), echoes it, carries it in
// the handler's context — where RecordTrace finds it and the client
// package forwards it on every downstream call, so one grep follows a
// query through router and shards alike — counts the request into the
// per-endpoint/per-status counter and latency histogram, and logs one
// line with the endpoint, status, wall time, and request ID.
func (f *Front) Instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := EnsureRequestID(r)
		w.Header().Set(RequestIDHeader, rid)
		f.InFlight.Add(1)
		defer f.InFlight.Add(-1)
		rec := &StatusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(client.WithRequestID(r.Context(), rid)))
		status := rec.Status()
		elapsed := time.Since(start)
		f.Requests.With(endpoint, strconv.Itoa(status)).Inc()
		f.Latency.With(endpoint).Observe(elapsed.Seconds())
		// Cancellations (504) are tallied in Canceled by Fail.
		if status >= 400 && status != http.StatusGatewayTimeout {
			f.Errors.Inc()
		}
		f.Log.Info("request",
			"endpoint", endpoint,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"elapsed", elapsed.Round(time.Microsecond).String(),
			"request_id", rid,
		)
	})
}

// Context narrows the request's context — which already carries the
// client-disconnect signal — by the shorter of the front's ceiling and
// the request body's own timeout_ms, so handlers see one context
// covering every way a query can become pointless.
func (f *Front) Context(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	timeout := f.Timeout
	if t := time.Duration(timeoutMillis) * time.Millisecond; timeoutMillis > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// ObserveFrames is the NewStream observe hook feeding the frame
// families.
func (f *Front) ObserveFrames(t wire.Type, frames, bytes int64) {
	f.Frames.With(t.String()).Add(frames)
	f.FrameBytes.With(t.String()).Add(bytes)
}

// Fail ends a failed streaming response through out.Fail and keeps the
// failure counters whole: a cancellation counts as Canceled, and a
// failure after the stream started — whose 200 status Instrument
// cannot tell from a success — as an error.
func (f *Front) Fail(out Stream, e *client.APIError) {
	switch {
	case e.Code == client.CodeCanceled:
		f.Canceled.Inc()
	case out.Started():
		f.Errors.Inc()
	}
	out.Fail(e)
}

// RecordTrace stores a finished query's span tree in the trace ring,
// keyed by the request ID Instrument put in the context — the same ID
// every process a routed query touches keys its own trace under, so
// GET /v1/traces/{request-id} follows it through the fleet — and emits
// the slow-query line when the root crosses the threshold.
func (f *Front) RecordTrace(r *http.Request, kind string, root *obs.Span) {
	rid := client.RequestIDFrom(r.Context())
	if rid == "" { // not under Instrument (tests)
		rid = obs.NewSpanID()
	}
	f.Traces.Add(&obs.Trace{
		ID:         rid,
		Kind:       kind,
		ParentSpan: ParentSpan(r),
		Root:       root,
	})
	if f.SlowQuery > 0 && root.Duration >= f.SlowQuery {
		f.Log.Warn("slow query",
			"kind", kind,
			"request_id", rid,
			"elapsed", root.Duration.Round(time.Microsecond).String(),
			"threshold", f.SlowQuery.String(),
			"breakdown", root.Breakdown(),
		)
	}
}

// NotFound is the catch-all route: a typed 404 naming the endpoint.
func NotFound(w http.ResponseWriter, r *http.Request) {
	WriteError(w, &client.APIError{
		Status: http.StatusNotFound, Code: client.CodeNotFound,
		Message: "no such endpoint: " + r.Method + " " + r.URL.Path,
	})
}
