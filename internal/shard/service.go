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

// Service is the HTTP front of a Router: it answers through the same
// internal/httpapi handler sjserved does — the same endpoints, the
// same streams on either transport, the same wire types — so clients
// cannot tell a router from a single server, except that /v1/stats
// reports the fleet size. The Router is its backend. Towards its
// shards it speaks frames only; what the caller negotiated decides
// just how its httpapi.Stream renders them. cmd/sjrouter runs one
// under an http.Server.
type Service struct {
	handler http.Handler
}

// NewService builds the HTTP layer over cfg.Router. The front's metric
// families live in the router's registry, so one /metrics serves them
// beside the per-shard scatter families; on a router most DATA frames
// counted there are relays, never decoded.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Router == nil {
		panic("shard: ServiceConfig.Router is required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	r := cfg.Router
	reg := r.Registry()
	front := httpapi.NewFront(reg, httpapi.Front{
		Log: log, Timeout: cfg.Timeout,
		Traces: obs.NewTraceStore(cfg.Traces), SlowQuery: cfg.SlowQuery,
	})
	return &Service{handler: httpapi.NewHandler(reg, front, httpapi.Backend{
		// Healthy only when every shard is: the router is up exactly
		// when the fleet can answer queries, which is what an
		// orchestrator's probe needs to know.
		Health:    r.Health,
		Relations: r.Relations,
		Stats:     r.Stats,
		Append:    r.Append,
		Join:      r.join,
		Window:    r.window,
		APIError:  apiErrorFor,
	})}
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.handler }

// join is the Service's join: the scatter on the relay path, every
// shard frame handed to the caller's stream — passed through as bytes
// or rendered as an NDJSON line, the stream's business alone; a frame
// it refuses fails the scatter like any shard fault. The span tree's
// root wraps the whole scatter, with one child per shard leg (the
// shard's own tree grafted underneath when it returned one) and an
// error attribute on each failed leg: a routed query that timed out or
// lost a shard is exactly the one an operator will look up.
func (r *Router) join(ctx context.Context, req *client.JoinRequest, out httpapi.Stream) (*client.JoinSummary, *obs.Span, error) {
	root := obs.StartSpan("router.join")
	ct := new(callTrace)
	sum, err := r.joinFrames(ctx, *req, relay(out, req.CountOnly), ct)
	root.End()
	ct.attach(root)
	root.SetAttr("left", req.Left).SetAttr("right", req.Right)
	if sum != nil {
		root.SetAttr("algorithm", sum.Algorithm)
	}
	return sum, root, err
}

// window is join for window queries. The window wire summary carries
// no span tree, so a routed window's trace is reachable only through
// GET /v1/traces on the router.
func (r *Router) window(ctx context.Context, req *client.WindowRequest, out httpapi.Stream) (*client.WindowSummary, *obs.Span, error) {
	root := obs.StartSpan("router.window")
	ct := new(callTrace)
	sum, err := r.windowFrames(ctx, *req, relay(out, req.CountOnly), ct)
	root.End()
	ct.attach(root)
	root.SetAttr("relation", req.Relation)
	return sum, root, err
}

// relay is the frame sink of a streaming scatter: out's Relay, or nil
// for a count-only query, whose shards send no data.
func relay(out httpapi.Stream, countOnly bool) func(raw []byte) error {
	if countOnly {
		return nil
	}
	return out.Relay
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
		if errors.Unwrap(err) == nil {
			return apiErr // the router's own verdict, not a shard's
		}
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
