// Package server is sjserved's backend: a long-lived spatial-join
// query service over an in-memory unijoin.Catalog, answering the HTTP
// API that internal/httpapi.NewHandler serves — the same handler
// sjrouter answers through.
//
// The catalog holds named, optionally indexed relations resident
// across requests; joins run through the public Query(...).Run(ctx)
// API and window queries through PinnedView.WindowQuery, writing their
// batches to the httpapi.Stream the front opened — binary frames when
// the caller offers them (always, when the caller is a router), NDJSON
// otherwise; the backend never knows which. The front runs every query
// under one context.Context assembled from the client's disconnect
// signal, the server's per-request timeout ceiling, and an optional
// per-request timeout, so an abandoned or over-budget query aborts
// mid-run with ErrCanceled rather than burning the worker. Typed
// errors map onto HTTP status codes: ErrNeedsIndex → 422, unknown
// relations → 404, ErrCanceled → 504, malformed requests → 400.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
	"unijoin/internal/shard"
)

// DefaultBatchPairs is how many pairs or records one batch — an
// NDJSON line or a DATA frame — carries at most. Window records are
// the fat case: float32 coordinates marshal as float64 decimals of up
// to ~18 characters, so a record line item can reach ~130 JSON bytes,
// and 1024 of them stay well inside the 1 MB line the bundled client's
// scanner accepts.
const DefaultBatchPairs = 1024

// Config configures a Server.
type Config struct {
	// Catalog is the relation catalog to serve. Required.
	Catalog *unijoin.Catalog
	// Timeout is the server-side ceiling on each join/window request;
	// a request's own timeout_ms may shorten it but never extend it.
	// Zero means no ceiling.
	Timeout time.Duration
	// Logger receives one line per request; nil uses slog.Default().
	Logger *slog.Logger
	// Stripe, when set, makes this process one shard of a fleet: the
	// catalog is expected to hold only records overlapping the
	// stripe (sjserved -stripe slices at load), and every join pair
	// and window record is filtered by the shard ownership rules
	// (see internal/shard), so a router summing the fleet's answers
	// gets exactly the single-process result. Joins hand the interval
	// to the query (Query.Owned) and the kernels apply the pair rule
	// as they report; the window handler tests each record's left edge
	// itself. The stripe is exposed on /v1/stats and /v1/relations for
	// the router's fleet check.
	Stripe *shard.Interval
	// Registry receives the server's metric families (GET /metrics
	// serves its rendering). Nil gets a private registry, so an
	// embedded server still counts — it just isn't scraped.
	Registry *obs.Registry
	// Traces caps the in-memory ring of recent request traces served
	// on GET /v1/traces (0 = obs.DefaultTraceCapacity). Every join and
	// window request records a span tree there, trace flag or not.
	Traces int
	// SlowQuery, when positive, logs one Warn line with the full span
	// breakdown for every join or window whose wall time reaches it.
	SlowQuery time.Duration
	// WorkloadLo and WorkloadHi bound the query-window x-histogram the
	// workload recorder keeps (Hi ≤ Lo falls back to the default
	// 0..1000 universe). Every shard of a fleet must use the same
	// bounds — sjserved derives them from -region — so a router can
	// sum the histograms index-wise on /v1/stats.
	WorkloadLo, WorkloadHi float64
}

// Server is the HTTP query service. Create with New, expose with
// Handler, and run under any http.Server. All state a request touches
// — the catalog, the metrics — is safe for concurrent use, so the
// standard library's one-goroutine-per-request model needs no extra
// coordination.
type Server struct {
	cat     *unijoin.Catalog
	stripe  *shard.Interval
	start   time.Time
	handler http.Handler
	// front is the request plumbing NewHandler runs around the API;
	// its families live in this server's registry, and Stats reads
	// them.
	front httpapi.Front

	metrics  *metrics
	workload *obs.Workload
}

// New builds a Server over cfg.Catalog.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: Config.Catalog is required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	m := newMetrics(cfg.Registry)
	s := &Server{
		cat:     cfg.Catalog,
		stripe:  cfg.Stripe,
		start:   time.Now(),
		metrics: m,
		front: httpapi.NewFront(m.reg, httpapi.Front{
			Log: log, Timeout: cfg.Timeout,
			Traces: obs.NewTraceStore(cfg.Traces), SlowQuery: cfg.SlowQuery,
		}),
	}
	s.workload = obs.NewWorkload(m.reg, cfg.WorkloadLo, cfg.WorkloadHi, obs.DefaultWorkloadBuckets)
	s.handler = httpapi.NewHandler(m.reg, s.front, httpapi.Backend{
		Health:    func(context.Context) error { return nil },
		Relations: s.relations,
		Stats:     func(context.Context) (*client.Stats, error) { st := s.Stats(); return &st, nil },
		Append:    s.appendRecords,
		Join:      s.join,
		Window:    s.window,
		APIError:  errorFor,
	})
	return s
}

// Handler returns the service's HTTP handler, middleware included.
func (s *Server) Handler() http.Handler { return s.handler }

// stripeDTO returns the server's stripe in wire form (nil when the
// process serves the whole universe).
func (s *Server) stripeDTO() *client.Stripe {
	if s.stripe == nil {
		return nil
	}
	return shard.ToStripe(*s.stripe)
}

// Stats snapshots the server's counters (the body of GET /v1/stats).
func (s *Server) Stats() client.Stats {
	// The status-labeled request counter increments when a request
	// completes (its status is unknown before then), so accepted
	// requests — the old entry-time semantics, which count the stats
	// request reading this — are completed + in-flight.
	inFlight := int64(s.front.InFlight.Value())
	// The delta gauge is recomputed from the catalog at read time, so
	// it reflects compactions and reloads, not just the last append.
	var delta int64
	for _, name := range s.cat.Names() {
		if rel, ok := s.cat.Get(name); ok {
			delta += rel.Pin().DeltaRecords()
		}
	}
	return client.Stats{
		Stripe:                s.stripeDTO(),
		UptimeSeconds:         time.Since(s.start).Seconds(),
		Relations:             s.cat.Len(),
		Requests:              s.front.Requests.Total() + inFlight,
		InFlight:              inFlight,
		Joins:                 s.metrics.joins.Value(),
		Windows:               s.metrics.windows.Value(),
		Errors:                s.front.Errors.Value(),
		Canceled:              s.front.Canceled.Value(),
		PairsStreamed:         s.metrics.pairsStreamed.Value(),
		RecordsStreamed:       s.metrics.recordsStreamed.Value(),
		Appends:               s.metrics.appends.Value(),
		RecordsIngested:       s.metrics.ingestRecords.Total(),
		Compactions:           s.metrics.compactions.Value(),
		DeltaRecords:          delta,
		JoinLatencyEWMAMillis: s.metrics.joinEWMA.Snapshot(),
		Workload:              workloadDTO(s.workload.Snapshot()),
	}
}

// workloadDTO converts the recorder's snapshot to its wire form.
func workloadDTO(w obs.WorkloadSnapshot) *client.WorkloadStats {
	return &client.WorkloadStats{
		XLo: w.XLo, XHi: w.XHi,
		Buckets:    w.Buckets,
		Windowed:   w.Windowed,
		Unwindowed: w.Unwindowed,
		Queries:    w.Queries,
	}
}
