package httpapi

import (
	"context"
	"fmt"
	"net/http"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/obs"
)

// Backend is what a serving front answers the API from: sjserved's
// catalog (internal/server) or a shard fleet (internal/shard.Service).
// Everything around the answers — routes, request decoding, deadlines,
// streams, traces, the error envelope — is NewHandler's, so the two
// fronts cannot drift apart.
type Backend struct {
	// Health reports whether the front can answer queries; an error
	// answers GET /v1/healthz with 503 unavailable.
	Health func(ctx context.Context) error
	// Relations and Stats are the bodies of GET /v1/relations and
	// GET /v1/stats.
	Relations func(ctx context.Context) ([]client.RelationInfo, error)
	Stats     func(ctx context.Context) (*client.Stats, error)
	// Append applies records, already parsed from the request body, to
	// a relation.
	Append func(ctx context.Context, relation string, recs []client.RecordIn) (*client.AppendSummary, error)
	// Join and Window run a decoded query under the front's deadline,
	// writing their results to out, and return the summary, the query's
	// span tree and the failure, if any. The tree is returned either
	// way — a query refused before it ran gets a root with no children
	// — and the front records it, with an error attribute on the root
	// when the query failed.
	Join   func(ctx context.Context, req *client.JoinRequest, out Stream) (*client.JoinSummary, *obs.Span, error)
	Window func(ctx context.Context, req *client.WindowRequest, out Stream) (*client.WindowSummary, *obs.Span, error)
	// APIError classifies a backend error for the wire.
	APIError func(err error) *client.APIError
}

// NewHandler is the whole HTTP API of a serving front: every route,
// each behind f's instrumentation except /metrics (reg's rendering:
// scrapes should not move the request counters they report), answered
// from b. f is a front NewFront completed on reg.
func NewHandler(reg *obs.Registry, f Front, b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /v1/healthz", f.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := b.Health(r.Context()); err != nil {
			writeError(w, &client.APIError{
				Status: http.StatusServiceUnavailable, Code: client.CodeUnavailable,
				Message: err.Error(),
			})
			return
		}
		writeJSON(w, map[string]string{"status": "ok"})
	}))
	mux.Handle("GET /v1/relations", f.instrument("relations", getJSON(b.Relations, b.APIError)))
	mux.Handle("GET /v1/stats", f.instrument("stats", getJSON(b.Stats, b.APIError)))
	mux.Handle("GET /v1/traces", f.instrument("traces", tracesHandler(f.Traces)))
	mux.Handle("GET /v1/traces/{id}", f.instrument("traces", traceByIDHandler(f.Traces)))
	mux.Handle("POST /v1/join", f.instrument("join", serveQuery(&f, b.APIError, "join",
		func(req *client.JoinRequest) int64 { return req.TimeoutMillis },
		func(ctx context.Context, req *client.JoinRequest, out Stream) (*client.JoinSummary, *obs.Span, error) {
			sum, root, err := b.Join(ctx, req, out)
			if err == nil && req.Trace {
				sum.Trace, sum.Spans = phaseTrace(root), spanDTO(root, root.Start)
			}
			return sum, root, err
		})))
	mux.Handle("POST /v1/window", f.instrument("window", serveQuery(&f, b.APIError, "window",
		func(req *client.WindowRequest) int64 { return req.TimeoutMillis }, b.Window)))
	mux.Handle("POST /v1/relations/{relation}/records", f.instrument("append", func(w http.ResponseWriter, r *http.Request) {
		recs, err := client.ParseRecords(r.Header.Get("Content-Type"),
			http.MaxBytesReader(w, r.Body, maxAppendBodyBytes))
		if err != nil {
			writeError(w, badRequest(err.Error()))
			return
		}
		ctx, cancel := f.queryContext(r, 0)
		defer cancel()
		sum, err := b.Append(ctx, r.PathValue("relation"), recs)
		if err != nil {
			writeError(w, b.APIError(err))
			return
		}
		writeJSON(w, sum)
	}))
	mux.Handle("/", f.instrument("notfound", notFound))
	return mux
}

// getJSON serves a plain JSON body read from the backend.
func getJSON[T any](get func(ctx context.Context) (T, error), apiError func(error) *client.APIError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := get(r.Context())
		if err != nil {
			writeError(w, apiError(err))
			return
		}
		writeJSON(w, v)
	}
}

// serveQuery is the one streaming body, for requests Q with summaries
// S: decode the request (unknown fields refused), narrow the deadline
// by its timeout_ms, open the stream the caller negotiated, run the
// query, record its span tree under the request ID, and end the
// response with the summary or a typed error.
func serveQuery[Q, S any](f *Front, apiError func(error) *client.APIError, kind string, timeoutMillis func(*Q) int64,
	run func(ctx context.Context, req *Q, out Stream) (*S, *obs.Span, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Q
		if e := decodeBody(w, r, &req); e != nil {
			writeError(w, e)
			return
		}
		ctx, cancel := f.queryContext(r, timeoutMillis(&req))
		defer cancel()
		out := NewStream(w, r, f.observeFrames)
		defer out.Close()
		sum, root, err := run(ctx, &req, out)
		if err != nil {
			e := apiError(err)
			root.SetAttr("error", e.Message)
			f.recordTrace(r, kind, root)
			f.fail(out, e)
			return
		}
		f.recordTrace(r, kind, root)
		out.Finish(sum)
	}
}

// Records converts appended wire records to engine records, refusing
// the batch at its first invalid or non-finite rectangle — the one
// check sjserved's append and the router's share, so both refuse with
// the same 400.
func Records(ins []client.RecordIn) ([]geom.Record, error) {
	recs := make([]geom.Record, len(ins))
	for i, in := range ins {
		recs[i] = geom.Record{ID: in.ID, Rect: ToRect(in.Rect)}
		if !recs[i].Rect.Valid() || !recs[i].Rect.Finite() {
			return nil, badRequest(fmt.Sprintf("record %d (id %d) has an invalid or non-finite rectangle", i, in.ID))
		}
	}
	return recs, nil
}

// badRequest is the 400 for a request-shape problem.
func badRequest(msg string) *client.APIError {
	return &client.APIError{Status: http.StatusBadRequest, Code: client.CodeBadRequest, Message: msg}
}
