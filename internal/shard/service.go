package shard

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
	"unijoin/internal/wire"
)

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Router is the shard fleet to serve over. Required.
	Router *Router
	// Timeout is the router-side ceiling per join/window request
	// (a request's own timeout_ms may shorten it; shards additionally
	// apply their own ceilings). Zero means no ceiling.
	Timeout time.Duration
	// Logger receives one line per request; nil uses slog.Default().
	Logger *slog.Logger
	// Traces caps the in-memory ring of recent request traces served
	// on GET /v1/traces (0 = obs.DefaultTraceCapacity). Every routed
	// join and window records a span tree there — the root wraps the
	// whole scatter, with one child per shard leg.
	Traces int
	// SlowQuery, when positive, logs one Warn line with the scatter
	// breakdown for every join or window whose wall time reaches it.
	SlowQuery time.Duration
}

// Service is the HTTP front of a Router: it speaks exactly the
// sjserved API — the same endpoints, the same streams on either
// transport, the same wire types — so clients cannot tell a router
// from a single server, except that /v1/stats reports the fleet size.
// Towards its shards it speaks frames only; what the caller negotiated
// decides just how its httpapi.Stream renders them. cmd/sjrouter runs
// one under an http.Server.
type Service struct {
	router *Router
	mux    *http.ServeMux
	// front is the request plumbing shared with internal/server. Its
	// metric handles live in the router's registry, so one /metrics
	// serves the request families beside the per-shard scatter
	// families; on a router most DATA frames counted there are relays,
	// never decoded.
	front httpapi.Front
}

// NewService builds the HTTP layer over cfg.Router.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Router == nil {
		panic("shard: ServiceConfig.Router is required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	reg := cfg.Router.Registry()
	s := &Service{
		router: cfg.Router, mux: http.NewServeMux(),
		front: httpapi.NewFront(reg, httpapi.Front{
			Log: log, Timeout: cfg.Timeout,
			Traces: obs.NewTraceStore(cfg.Traces), SlowQuery: cfg.SlowQuery,
		}),
	}
	f := &s.front
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.Handle("GET /v1/healthz", f.Instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /v1/relations", f.Instrument("relations", s.handleRelations))
	s.mux.Handle("GET /v1/stats", f.Instrument("stats", s.handleStats))
	s.mux.Handle("GET /v1/traces", f.Instrument("traces", httpapi.TracesHandler(f.Traces)))
	s.mux.Handle("GET /v1/traces/{id}", f.Instrument("traces", httpapi.TraceByIDHandler(f.Traces)))
	s.mux.Handle("POST /v1/join", f.Instrument("join", serveStream(s, joinQuery)))
	s.mux.Handle("POST /v1/window", f.Instrument("window", serveStream(s, windowQuery)))
	s.mux.Handle("POST /v1/relations/{relation}/records", f.Instrument("append", s.handleAppend))
	s.mux.Handle("/", f.Instrument("notfound", httpapi.NotFound))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.mux }

// handleHealthz reports healthy only when every shard is: the router
// is up exactly when the fleet can answer queries, which is what an
// orchestrator's probe needs to know.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.router.Health(r.Context()); err != nil {
		httpapi.WriteError(w, &client.APIError{
			Status: http.StatusServiceUnavailable, Code: client.CodeUnavailable,
			Message: err.Error(),
		})
		return
	}
	httpapi.WriteJSON(w, map[string]string{"status": "ok"})
}

func (s *Service) handleRelations(w http.ResponseWriter, r *http.Request) {
	rels, err := s.router.Relations(r.Context())
	if err != nil {
		httpapi.WriteError(w, apiErrorFor(err))
		return
	}
	httpapi.WriteJSON(w, rels)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := s.router.Stats(r.Context())
	if err != nil {
		httpapi.WriteError(w, apiErrorFor(err))
		return
	}
	httpapi.WriteJSON(w, stats)
}

// streamQuery is what serveStream needs to know about one kind of
// streaming query over requests Q with summaries S.
type streamQuery[Q, S any] struct {
	// kind names the query in traces: the trace kind, and the root
	// span "router.<kind>".
	kind string
	// limits reads the request's own deadline and whether it wants
	// only the count (then no DATA frame is relayed).
	limits func(req *Q) (timeoutMillis int64, countOnly bool)
	// scatter runs the query on the fleet's relay path (a Router
	// method expression).
	scatter func(r *Router, ctx context.Context, req Q, onFrame func(raw []byte) error, ct *callTrace) (*S, error)
	// describe labels the finished root span from the request and,
	// when the scatter succeeded (sum non-nil), from its merged
	// summary — and echoes the tree on the summary if the request
	// asked for a trace.
	describe func(root *obs.Span, req *Q, sum *S)
}

var joinQuery = streamQuery[client.JoinRequest, client.JoinSummary]{
	kind:    "join",
	limits:  func(req *client.JoinRequest) (int64, bool) { return req.TimeoutMillis, req.CountOnly },
	scatter: (*Router).joinFrames,
	describe: func(root *obs.Span, req *client.JoinRequest, sum *client.JoinSummary) {
		root.SetAttr("left", req.Left).SetAttr("right", req.Right)
		if sum == nil {
			return
		}
		root.SetAttr("algorithm", sum.Algorithm)
		if req.Trace {
			sum.Trace = httpapi.PhaseTrace(root)
			sum.Spans = httpapi.SpanDTO(root)
		}
	},
}

// The window wire summary carries no span tree, so a routed window's
// trace is reachable only through GET /v1/traces on the router.
var windowQuery = streamQuery[client.WindowRequest, client.WindowSummary]{
	kind:    "window",
	limits:  func(req *client.WindowRequest) (int64, bool) { return req.TimeoutMillis, req.CountOnly },
	scatter: (*Router).windowFrames,
	describe: func(root *obs.Span, req *client.WindowRequest, _ *client.WindowSummary) {
		root.SetAttr("relation", req.Relation)
	},
}

// serveStream is the one streaming handler: decode the request,
// scatter it on the relay path with every shard frame handed to the
// caller's stream — passed through as bytes or rendered as an NDJSON
// line, the stream's business alone; a frame it refuses fails the
// scatter like any shard fault — then end the response with the merged
// summary or a typed error. Either way the query's span tree (the root
// wraps the whole scatter; one child per shard leg, with the shard's
// own tree grafted underneath when it returned one) is recorded, with
// an error attribute on the root and on each failed leg: a routed query
// that timed out or lost a shard is exactly the one an operator will
// look up.
func serveStream[Q, S any](s *Service, q streamQuery[Q, S]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Q
		if apiErr := httpapi.DecodeBody(w, r, &req); apiErr != nil {
			httpapi.WriteError(w, apiErr)
			return
		}
		timeoutMillis, countOnly := q.limits(&req)
		ctx, cancel := s.front.Context(r, timeoutMillis)
		defer cancel()
		out := httpapi.NewStream(w, r, s.front.ObserveFrames)
		defer out.Close()
		var relay func(raw []byte) error
		if !countOnly {
			relay = out.Relay
		}
		ct := new(callTrace)
		root := obs.StartSpan("router." + q.kind)
		sum, err := q.scatter(s.router, ctx, req, relay, ct)
		root.End()
		ct.attach(root)
		q.describe(root, &req, sum)
		var apiErr *client.APIError
		if err != nil {
			apiErr = apiErrorFor(err)
			root.SetAttr("error", apiErr.Message)
		}
		s.front.RecordTrace(r, q.kind, root)
		if apiErr != nil {
			s.front.Fail(out, apiErr)
			return
		}
		out.Finish(sum)
	}
}

// handleAppend serves the append endpoint with sjserved's exact wire
// contract, fanning the records out by stripe ownership so the fleet
// absorbs the write the way a single process would.
func (s *Service) handleAppend(w http.ResponseWriter, r *http.Request) {
	recs, err := client.ParseRecords(r.Header.Get("Content-Type"),
		http.MaxBytesReader(w, r.Body, httpapi.MaxAppendBodyBytes))
	if err != nil {
		httpapi.WriteError(w, &client.APIError{
			Status: http.StatusBadRequest, Code: client.CodeBadRequest,
			Message: err.Error(),
		})
		return
	}
	ctx, cancel := s.front.Context(r, 0)
	defer cancel()
	sum, aerr := s.router.Append(ctx, r.PathValue("relation"), recs)
	if aerr != nil {
		httpapi.WriteError(w, apiErrorFor(aerr))
		return
	}
	httpapi.WriteJSON(w, sum)
}

// apiErrorFor classifies a router error for the wire: a shard's own
// *APIError keeps its status and code (with the shard identified in
// the message), cancellations map to 504, a shard frame the caller's
// stream refused as corrupt is the internal-error class — a broken
// peer, as the decoding client reports it — and anything else — an
// unreachable shard, a transport failure — is 502 unavailable.
func apiErrorFor(err error) *client.APIError {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		return &client.APIError{Status: apiErr.Status, Code: apiErr.Code, Message: err.Error()}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &client.APIError{
			Status: http.StatusGatewayTimeout, Code: client.CodeCanceled,
			Message: err.Error(),
		}
	case errors.Is(err, wire.ErrCorrupt):
		return &client.APIError{
			Status: http.StatusInternalServerError, Code: client.CodeInternal,
			Message: err.Error(),
		}
	}
	return &client.APIError{
		Status: http.StatusBadGateway, Code: client.CodeUnavailable,
		Message: err.Error(),
	}
}
