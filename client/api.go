// Package client is the Go client for sjserved, the spatial-join
// query service, and the home of the wire types its HTTP API speaks
// (internal/server marshals exactly these structs, so the two sides
// cannot drift).
//
// The service exposes six endpoints:
//
//	GET  /v1/healthz                        liveness probe
//	GET  /v1/relations                      the in-memory relation catalog
//	GET  /v1/stats                          uptime and per-request counters
//	POST /v1/join                           spatial join of two cataloged relations
//	POST /v1/window                         window (range) query over one relation
//	POST /v1/relations/{relation}/records   append records to a relation
//
// Join and window responses stream as NDJSON (one JSON object per
// line): zero or more batch lines carrying result pairs or records,
// then exactly one terminal line carrying either the summary or an
// error. Streaming starts as soon as the join produces output, so a
// client can consume results long before the query finishes. A client
// with PreferBinary set offers the packed frame transport
// (internal/wire) instead — same batches, summary and errors — and
// reads the NDJSON a server that ignores the offer answers with.
//
// sjrouter, the scatter-gather front for a fleet of sjserved stripe
// shards, speaks the same API — the shard-aware fields (Stripe,
// Shards) are the only way to tell the two apart. Non-2xx responses
// and terminal error lines surface as *APIError values matching this
// package's sentinel errors under errors.Is.
package client

import "fmt"

// Rect is an axis-parallel rectangle in request/response bodies,
// mirroring unijoin.Rect.
type Rect struct {
	XLo float64 `json:"xlo"`
	YLo float64 `json:"ylo"`
	XHi float64 `json:"xhi"`
	YHi float64 `json:"yhi"`
}

// JoinRequest asks for a spatial join of two cataloged relations.
type JoinRequest struct {
	// Left and Right name the relations to join.
	Left  string `json:"left"`
	Right string `json:"right"`
	// Algorithm is the join strategy: PQ (default), SSSJ, PBSM, ST,
	// auto, BFRJ, or parallel (case-insensitive).
	Algorithm string `json:"algorithm,omitempty"`
	// Window restricts the join to pairs of records both intersecting
	// this rectangle.
	Window *Rect `json:"window,omitempty"`
	// Parallelism is the worker count for the parallel algorithm
	// (0 = the server's GOMAXPROCS; the server clamps large values).
	Parallelism int `json:"parallelism,omitempty"`
	// CountOnly skips pair streaming and materialization entirely;
	// the response is a single summary line (the cheapest mode).
	CountOnly bool `json:"count_only,omitempty"`
	// TimeoutMillis bounds this request server-side; the server's own
	// per-request timeout still applies as a ceiling.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Trace asks the server to include a per-phase wall-clock
	// breakdown (partition/sweep/stream) in the summary line.
	Trace bool `json:"trace,omitempty"`
}

// PhaseTrace is the per-query phase breakdown returned when a join
// request sets Trace. Partition covers input preparation (external
// sorts, distribution passes); Sweep covers the join kernel or index
// traversal; Stream covers writing result batches to the response.
// Pure-traversal algorithms (ST, BFRJ) have no partition phase, so
// their PartitionMillis is zero. A router reports the slowest shard
// per phase, matching how it reports ElapsedMillis.
type PhaseTrace struct {
	PartitionMillis float64 `json:"partition_ms"`
	SweepMillis     float64 `json:"sweep_ms"`
	StreamMillis    float64 `json:"stream_ms"`
}

// JoinSummary is the terminal line of a successful join response.
type JoinSummary struct {
	Left      string `json:"left"`
	Right     string `json:"right"`
	Algorithm string `json:"algorithm"`
	Pairs     int64  `json:"pairs"`
	// LeftRecords and RightRecords are the sizes of the two relations
	// the join ran on. From a router they are sums over the shards asked
	// — every shard, or under a window the shards it reaches — with a
	// boundary-crossing record counted once by each shard holding it.
	LeftRecords  int64 `json:"left_records"`
	RightRecords int64 `json:"right_records"`
	// ElapsedMillis is the server-side wall-clock time of the join.
	ElapsedMillis float64 `json:"elapsed_ms"`
	// Trace is the per-phase breakdown, present only when the request
	// set Trace.
	Trace *PhaseTrace `json:"trace,omitempty"`
	// Spans is the request's span tree, present only when the request
	// set Trace: a direct server returns its server.join tree; a
	// router returns its router.join root with one scatter child per
	// shard asked, each carrying that shard's full tree. The same tree is
	// retrievable later from GET /v1/traces/{request-id}.
	Spans *Span `json:"spans,omitempty"`
}

// Span is one node of a trace tree (GET /v1/traces/{id}, and the
// summary's Spans field when a request asked for a trace).
type Span struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// StartMillis is the span's offset from its tree's root start — a
	// shard's subtree grafted under a router's scatter span is rebased
	// onto the router's clock, so offsets nest consistently within one
	// tree even across processes.
	StartMillis    float64           `json:"start_ms"`
	DurationMillis float64           `json:"duration_ms"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*Span           `json:"children,omitempty"`
}

// TraceSummary is one row of GET /v1/traces: enough to pick a trace
// from the recent window without fetching every tree.
type TraceSummary struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Name is the root span's name (router.join, server.window, ...).
	Name string `json:"name"`
	// Start is the root span's wall-clock start, RFC 3339 with
	// nanoseconds.
	Start          string            `json:"start"`
	DurationMillis float64           `json:"duration_ms"`
	Spans          int               `json:"spans"`
	Attrs          map[string]string `json:"attrs,omitempty"`
}

// TraceDetail is the full tree behind GET /v1/traces/{id}.
type TraceDetail struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// ParentSpan links a shard's trace to the router scatter span that
	// caused it (the X-Parent-Span the router sent); absent for
	// requests that arrived directly.
	ParentSpan     string  `json:"parent_span,omitempty"`
	Start          string  `json:"start"`
	DurationMillis float64 `json:"duration_ms"`
	Root           *Span   `json:"root"`
}

// WindowRequest asks for the records of one relation intersecting a
// rectangle. Window is required — the server rejects a request
// without one rather than guessing a default.
type WindowRequest struct {
	Relation string `json:"relation"`
	Window   *Rect  `json:"window"`
	// CountOnly skips record streaming; the response is a single
	// summary line.
	CountOnly bool `json:"count_only,omitempty"`
	// TimeoutMillis bounds this request server-side.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// WindowSummary is the terminal line of a successful window response.
type WindowSummary struct {
	Relation string `json:"relation"`
	Records  int64  `json:"records"`
	// Indexed reports whether the relation is declared indexed; from a
	// router, whether it is on every one of the shards asked (those the
	// window reaches). Every relation answers a window the same way,
	// from the y-slab of its sorted run, so this does not say how.
	Indexed       bool    `json:"indexed"`
	ElapsedMillis float64 `json:"elapsed_ms"`
}

// RecordOut is one spatial record in a window response.
type RecordOut struct {
	ID   uint32 `json:"id"`
	Rect Rect   `json:"rect"`
}

// RecordIn is one spatial record in an append request
// (POST /v1/relations/{relation}/records). The same shape works as a
// single JSON object, an element of a JSON array, or one NDJSON line
// — the bulk wire format cmd/sjgen emits with -ndjson.
type RecordIn struct {
	ID   uint32 `json:"id"`
	Rect Rect   `json:"rect"`
}

// AppendSummary is the response to an append: how many records this
// process (or fleet) accepted and the relation's state afterwards.
// Queries started after a successful append observe every appended
// record; queries already running when it landed observe none of them
// (each query pins the relation's epoch when it starts).
type AppendSummary struct {
	Relation string `json:"relation"`
	// Appended counts the records accepted. A stripe shard accepts
	// only records overlapping its stripe; a router reports the input
	// records placed (each lands on every shard whose stripe it
	// overlaps, mirroring how -stripe slices at load).
	Appended int64 `json:"appended"`
	// Records is the relation's total after the append (summed across
	// shards by a router, counting boundary-crossing records once per
	// holding shard, as GET /v1/relations does).
	Records int64 `json:"records"`
	// Epoch is the relation's version number after the append (the
	// maximum across shards for a router); it increases with every
	// append and compaction.
	Epoch int64 `json:"epoch"`
	// DeltaRecords is how many records sit in the relation's delta log
	// past its packed base (summed across shards) — compaction resets
	// it to zero.
	DeltaRecords int64 `json:"delta_records"`
	// Compacted reports whether this append tripped the relation's
	// compaction threshold (on any shard, for a router).
	Compacted bool `json:"compacted,omitempty"`
	// Shards is set by a router: how many shards the append fanned out
	// to.
	Shards int `json:"shards,omitempty"`
}

// JoinLine is one NDJSON line of a join response: exactly one field
// is set — Pairs on batch lines, Summary or Error on the final line.
// Each pair is [leftID, rightID].
type JoinLine struct {
	Pairs   [][2]uint32  `json:"pairs,omitempty"`
	Summary *JoinSummary `json:"summary,omitempty"`
	Error   *APIError    `json:"error,omitempty"`
}

// WindowLine is one NDJSON line of a window response; exactly one
// field is set, as in JoinLine.
type WindowLine struct {
	Records []RecordOut    `json:"records,omitempty"`
	Summary *WindowSummary `json:"summary,omitempty"`
	Error   *APIError      `json:"error,omitempty"`
}

// Stripe is the half-open x-interval [Lo, Hi) a shard serves. A nil
// bound means unbounded on that side (the outer shards of a plan), so
// the ±Inf sentinels survive JSON, which cannot carry infinities.
type Stripe struct {
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
}

// RelationInfo describes one cataloged relation (GET /v1/relations).
type RelationInfo struct {
	Name       string `json:"name"`
	Records    int64  `json:"records"`
	Indexed    bool   `json:"indexed"`
	DataBytes  int64  `json:"data_bytes"`
	IndexBytes int64  `json:"index_bytes,omitempty"`
	MBR        Rect   `json:"mbr"`
	// Stripe is set when the serving process holds only a stripe
	// shard of the relation (sjserved -stripe): Records then counts
	// the loaded slice, not the full relation.
	Stripe *Stripe `json:"stripe,omitempty"`
	// Shards is set by a router: how many shards reported this
	// relation (Records is their sum, which counts boundary-crossing
	// records once per shard that loaded them).
	Shards int `json:"shards,omitempty"`
}

// Stats is the GET /v1/stats response: uptime, the catalog summary,
// and the per-request counters the metrics middleware accumulates.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Relations     int     `json:"relations"`
	Requests      int64   `json:"requests"`
	InFlight      int64   `json:"in_flight"`
	Joins         int64   `json:"joins"`
	Windows       int64   `json:"windows"`
	// Errors counts failed requests, excluding cancellations;
	// Canceled counts timeouts and client disconnects separately.
	Errors          int64 `json:"errors"`
	Canceled        int64 `json:"canceled"`
	PairsStreamed   int64 `json:"pairs_streamed"`
	RecordsStreamed int64 `json:"records_streamed"`
	// Appends and RecordsIngested count append requests accepted and
	// records written through them; Compactions counts delta-log folds.
	Appends         int64 `json:"appends"`
	RecordsIngested int64 `json:"records_ingested"`
	Compactions     int64 `json:"compactions"`
	// DeltaRecords is the live gauge of records sitting in delta logs
	// past their relations' packed bases, summed over the catalog (and
	// over shards by a router) — the distance to the next compaction.
	DeltaRecords int64 `json:"delta_records"`
	// Stripe is set when this process serves one stripe shard of its
	// catalog (sjserved -stripe) — the shard metadata a router checks
	// to verify a fleet tiles the x-axis.
	Stripe *Stripe `json:"stripe,omitempty"`
	// Shards is set by a router: the number of downstream shard
	// processes whose counters are aggregated into this response.
	Shards int `json:"shards,omitempty"`
	// ShardStats is set by a router: one entry per downstream shard,
	// combining the shard's own counters with the router's count of its
	// scatter calls and their errors. Latency is on the router's
	// /metrics, as sj_shard_scatter_seconds{shard}.
	ShardStats []ShardStat `json:"shard_stats,omitempty"`
}

// ShardStat is a router's per-shard health line: the shard's
// self-reported counters plus the scatter calls the router counts
// from its side of the connection.
type ShardStat struct {
	Endpoint string  `json:"endpoint"`
	Stripe   *Stripe `json:"stripe,omitempty"`
	// Requests, InFlight, and Errors are the shard's own counters.
	Requests int64 `json:"requests"`
	InFlight int64 `json:"in_flight"`
	Errors   int64 `json:"errors"`
	// ScatterRequests and ScatterErrors count the router's calls to
	// this shard.
	ScatterRequests int64 `json:"scatter_requests"`
	ScatterErrors   int64 `json:"scatter_errors"`
}

// Error codes carried by APIError.Code, one per error class the
// server distinguishes.
const (
	CodeBadRequest  = "bad_request" // malformed body, unknown algorithm, bad window
	CodeNotFound    = "not_found"   // relation not in the catalog (or unknown route)
	CodeNeedsIndex  = "needs_index" // algorithm requires indexes the inputs lack
	CodeCanceled    = "canceled"    // server-side timeout or client disconnect
	CodeUnavailable = "unavailable" // a downstream shard is unreachable (router only)
	CodeInternal    = "internal"    // anything else
)

// APIError is the service's error shape, both as a non-2xx JSON body
// and as the terminal line of a stream that failed mid-flight (in
// which case Status reflects the code the server would have sent).
type APIError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("sjserved: %s (%d %s)", e.Message, e.Status, e.Code)
}
