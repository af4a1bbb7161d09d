package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unijoin/client"
	"unijoin/internal/geom"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
)

// Router fans queries out to a fleet of sjserved shard endpoints and
// gathers the results: join and window streams — always binary frames
// between router and shard — are merged as shard frames arrive, and
// per-shard summaries are summed into one response. Because each shard
// filters its output by its ownership interval, the merged pair and
// record sets are exact and duplicate-free — the distributed run
// returns precisely the single-process answer, for every join
// algorithm. A query under a window is sent only to the shards whose
// interval meets the window's x-extent: the reference point of every
// answer lies inside the window (geom.Interval), so the others own
// none. A Router is safe for concurrent use.
type Router struct {
	endpoints []string
	clients   []*client.Client
	all       []int // every leg: 0..len(clients)-1
	obs       routerObs

	// table is each shard's ownership interval in endpoint order, once
	// the fleet's sharding has been validated: by Verify (which
	// sjrouter passes before it serves) or by the first append. A
	// shard's -stripe is fixed for its lifetime, so the table is too;
	// re-cutting a fleet means restarting its router. Queries only read
	// it — nil means every query goes to every shard, always correct.
	table atomic.Pointer[[]Interval]
}

// routerObs is the router's view of shard health, recorded around
// every scatter call. The latency histogram's count and the error
// counter are also the scatter columns of /v1/stats's shard table.
type routerObs struct {
	reg      *obs.Registry
	latency  *obs.HistogramVec // sj_shard_scatter_seconds{shard}
	errors   *obs.CounterVec   // sj_shard_errors_total{shard}
	inFlight *obs.GaugeVec     // sj_shard_in_flight{shard}
}

func newRouterObs() routerObs {
	reg := obs.NewRegistry()
	return routerObs{
		reg: reg,
		latency: reg.HistogramVec("sj_shard_scatter_seconds",
			"Scatter call wall time in seconds, by shard endpoint.",
			nil, "shard"),
		errors: reg.CounterVec("sj_shard_errors_total",
			"Failed scatter calls, by shard endpoint.",
			"shard"),
		inFlight: reg.GaugeVec("sj_shard_in_flight",
			"Scatter calls currently outstanding, by shard endpoint.",
			"shard"),
	}
}

// observe records one scatter call against a shard.
func (o *routerObs) observe(endpoint string, elapsed time.Duration, err error) {
	o.latency.With(endpoint).Observe(elapsed.Seconds())
	if err != nil {
		o.errors.With(endpoint).Inc()
	}
}

// NewRouter builds a router over the given shard base URLs (at least
// one). httpClient may be nil for the router's own shard transport
// (shardTransport); per-call contexts govern cancellation either way.
func NewRouter(endpoints []string, httpClient *http.Client) (*Router, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard endpoint")
	}
	if httpClient == nil {
		httpClient = &http.Client{Transport: shardTransport()}
	}
	r := &Router{endpoints: append([]string(nil), endpoints...), obs: newRouterObs()}
	for i, ep := range r.endpoints {
		cl := client.New(ep, httpClient)
		cl.PreferBinary = true // frames are the fleet's internal protocol
		r.clients = append(r.clients, cl)
		r.all = append(r.all, i)
	}
	return r, nil
}

// shardTransport is the router's HTTP transport to its shards:
// http.DefaultTransport's dialing, timeouts and idle pool, with each
// connection reading through a buffer of httpapi.FlushBytes, the size
// of a shard's writes, so a relayed leg reads in as few, as large,
// reads as the shard wrote. The buffer belongs to the connection and
// is reused by every request it carries.
func shardTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.ReadBufferSize = httpapi.FlushBytes
	return t
}

// Registry exposes the router's metric registry so the serving layer
// (internal/shard.Service) can add its own request families and serve
// one /metrics for the whole process.
func (r *Router) Registry() *obs.Registry { return r.obs.reg }

// Shards returns the number of downstream shard endpoints.
func (r *Router) Shards() int { return len(r.clients) }

// Endpoints returns the shard base URLs in configuration order.
func (r *Router) Endpoints() []string { return append([]string(nil), r.endpoints...) }

// scatter runs fn once per leg — legs lists the shards to ask, by
// endpoint index; fn is told the leg's position n in it — concurrently,
// canceling the remaining legs as soon as one fails, and returns the
// root failure: the first error that is not itself a cancellation, so
// the shard that broke the fan-out is reported rather than the shards
// it took down. Only the shards asked move the per-shard families.
func (r *Router) scatter(ctx context.Context, legs []int, fn scatterFunc) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for n, i := range legs {
		wg.Add(1)
		go func(n, i int) {
			defer wg.Done()
			ep := r.endpoints[i]
			r.obs.inFlight.With(ep).Add(1)
			start := time.Now()
			err := fn(ctx, n, r.clients[i])
			r.obs.inFlight.With(ep).Add(-1)
			r.obs.observe(ep, time.Since(start), err)
			if err != nil {
				errs[n] = fmt.Errorf("shard %d (%s): %w", i, ep, err)
				cancel()
			}
		}(n, i)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, client.ErrCanceled) {
			return err
		}
	}
	return firstErr
}

// Health checks every shard's liveness probe, returning nil only when
// the whole fleet is up.
func (r *Router) Health(ctx context.Context) error {
	return r.scatter(ctx, r.all, func(ctx context.Context, i int, cl *client.Client) error {
		return cl.Health(ctx)
	})
}

// shardStats fetches every shard's stats, in endpoint order.
func (r *Router) shardStats(ctx context.Context) ([]client.Stats, error) {
	stats := make([]client.Stats, len(r.clients))
	err := r.scatter(ctx, r.all, func(ctx context.Context, i int, cl *client.Client) error {
		s, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		stats[i] = *s
		return nil
	})
	return stats, err
}

// Verify health-checks the fleet and validates its sharding: every
// shard must be reachable, and with more than one shard each must
// report a -stripe interval, with the intervals tiling the x-axis —
// otherwise the fleet would drop or double-count pairs. The intervals
// it validated become the router's stripe table — what appends are
// placed by and windowed queries are pruned by. It returns each
// shard's stats (in endpoint order) for logging.
func (r *Router) Verify(ctx context.Context) ([]client.Stats, error) {
	stats, err := r.shardStats(ctx)
	if err != nil {
		return nil, err
	}
	table := make([]Interval, len(stats))
	if len(r.clients) == 1 {
		// A single shard must serve everything: a lone bounded stripe
		// (say, a scale-down that dropped the other -shard flags)
		// would silently answer with a subset of the data.
		if table[0] = FromStripe(stats[0].Stripe); !table[0].Unbounded() {
			return nil, fmt.Errorf("shard: single shard %s serves only stripe %s; a one-shard fleet must serve everything",
				r.endpoints[0], table[0])
		}
	} else {
		for i, s := range stats {
			if s.Stripe == nil {
				return nil, fmt.Errorf("shard: %d shards configured but shard %d (%s) serves no -stripe; its full catalog would double-count pairs",
					len(stats), i, r.endpoints[i])
			}
			table[i] = FromStripe(s.Stripe)
		}
		sorted := append([]Interval(nil), table...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Lo < sorted[b].Lo })
		if err := Validate(sorted); err != nil {
			return nil, err
		}
	}
	r.table.Store(&table)
	return stats, nil
}

// stripes returns the validated stripe table, validating the fleet
// first if nothing has yet. Only appends call it: a query never waits
// on a fetch (scatterStream).
func (r *Router) stripes(ctx context.Context) ([]Interval, error) {
	if r.table.Load() == nil {
		if _, err := r.Verify(ctx); err != nil {
			return nil, err
		}
	}
	return *r.table.Load(), nil
}

// scatterStream is the one scatter-and-merge body behind every
// streaming query, and the one place that decides which shards a query
// is sent to: those whose validated interval Loads the request's window
// — every answer under a window is owned where its reference point
// lies, inside the window's x-extent — and every shard when the request
// has no window or the router was never verified. Intervals tile the
// line, so a window meets at least one; the window [+Inf, +Inf] (a JSON
// 1e39 overflows float32) is the exception, and goes to one shard
// anyway so that it is answered — 0 results, or 404 for an unknown
// relation — exactly as a single server answers it.
//
// It runs leg against each of those shards concurrently, hands each leg
// an emit callback that serialises the fleet's output into on — units
// from different shards interleave, one whole unit at a time, so
// cross-shard arrival order is not deterministic, but the merged set is
// exact — and collects the summaries of the shards asked, in endpoint
// order. on may be nil (count-only: shards send no data); an error from
// on fails that leg, which cancels the rest of the scatter like any
// shard fault. ct, when non-nil, records each leg for the caller's span
// tree. On failure the summaries of the legs that did finish are still
// returned, beside the scatter's root error.
func scatterStream[B, S any](ctx context.Context, r *Router, win *client.Rect, ct *callTrace, on func(B) error,
	leg func(ctx context.Context, cl *client.Client, emit func(B) error) (*S, error)) ([]*S, error) {
	legs := r.all
	if table := r.table.Load(); table != nil && win != nil {
		w := httpapi.ToRect(*win)
		legs = make([]int, 0, len(r.all))
		for i, iv := range *table {
			if iv.Loads(w) {
				legs = append(legs, i)
			}
		}
		if len(legs) == 0 {
			legs = r.all[:1]
		}
	}
	var mu sync.Mutex
	var emit func(B) error
	if on != nil {
		emit = func(unit B) error {
			mu.Lock()
			defer mu.Unlock()
			return on(unit)
		}
	}
	sums := make([]*S, len(legs))
	err := r.scatter(ctx, legs, r.traced(ct, legs, func(ctx context.Context, n int, cl *client.Client) error {
		s, err := leg(ctx, cl, emit)
		sums[n] = s
		return err
	}))
	return sums, err
}

// JoinFrames scatters the join on the relay path — to every shard, or
// under a window to the shards it reaches (scatterStream): each
// shard's PAIRS frames are handed to onFrame (which may be nil) as
// their exact wire bytes — the router never decodes or re-encodes a
// pair; only the terminal SUMMARY/ERROR frames are parsed for merging.
// The summary sums Pairs and the per-shard record counts
// (boundary-crossing records count once per shard that loaded them)
// and reports the slowest shard's elapsed time. Because each shard
// filters its output by its ownership interval, the merged pair set is
// exact and duplicate-free.
func (r *Router) JoinFrames(ctx context.Context, req client.JoinRequest, onFrame func(raw []byte)) (*client.JoinSummary, error) {
	return r.joinFrames(ctx, req, fallible(onFrame), nil)
}

// fallible gives a callback that cannot fail scatterStream's shape
// (nil stays nil).
func fallible[B any](f func(B)) func(B) error {
	if f == nil {
		return nil
	}
	return func(unit B) error { f(unit); return nil }
}

// joinFrames is JoinFrames as the serving layer runs it: onFrame may
// refuse a frame, and ct (which may be nil) traces the legs, each
// shard's returned span tree included.
func (r *Router) joinFrames(ctx context.Context, req client.JoinRequest, onFrame func(raw []byte) error, ct *callTrace) (*client.JoinSummary, error) {
	sums, err := scatterStream(ctx, r, req.Window, ct, onFrame,
		func(ctx context.Context, cl *client.Client, emit func([]byte) error) (*client.JoinSummary, error) {
			return cl.JoinRawFrames(ctx, req, emit)
		})
	if ct != nil {
		for n, s := range sums {
			if s != nil {
				ct.calls[n].Spans = s.Spans
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return mergeJoinSummaries(sums), nil
}

// mergeJoinSummaries sums the summaries of the shards asked: Pairs and
// record counts add (boundary-crossing records count once per shard
// that loaded them) and the elapsed time is the slowest shard's. A shard's
// trace describes that shard alone, so none survives the merge: the
// serving layer attaches the router's own tree (scatter legs with the
// shard trees grafted underneath) and the phase breakdown derived from
// it.
func mergeJoinSummaries(sums []*client.JoinSummary) *client.JoinSummary {
	merged := *sums[0]
	merged.Trace, merged.Spans = nil, nil
	for _, s := range sums[1:] {
		merged.Pairs += s.Pairs
		merged.LeftRecords += s.LeftRecords
		merged.RightRecords += s.RightRecords
		merged.ElapsedMillis = max(merged.ElapsedMillis, s.ElapsedMillis)
	}
	return &merged
}

// Window scatters the window query to the shards its window reaches
// and merges the decoded record streams: batches interleave across
// shards, counts sum exactly, Indexed reports whether the relation is
// declared indexed on every shard asked, and the elapsed time is the
// slowest shard's. This is the decoding
// counterpart of the relay the serving layer runs — for callers that
// want records, not bytes.
func (r *Router) Window(ctx context.Context, req client.WindowRequest, onBatch func([]client.RecordOut)) (*client.WindowSummary, error) {
	sums, err := scatterStream(ctx, r, req.Window, nil, fallible(onBatch),
		func(ctx context.Context, cl *client.Client, emit func([]client.RecordOut) error) (*client.WindowSummary, error) {
			if emit == nil {
				return cl.WindowBatches(ctx, req, nil)
			}
			return cl.WindowBatches(ctx, req, func(batch []client.RecordOut) {
				_ = emit(batch) // fallible(onBatch) under the scatter's lock: cannot fail
			})
		})
	if err != nil {
		return nil, err
	}
	return mergeWindowSummaries(sums), nil
}

// windowFrames is joinFrames for window queries, relaying RECORDS
// frames.
func (r *Router) windowFrames(ctx context.Context, req client.WindowRequest, onFrame func(raw []byte) error, ct *callTrace) (*client.WindowSummary, error) {
	sums, err := scatterStream(ctx, r, req.Window, ct, onFrame,
		func(ctx context.Context, cl *client.Client, emit func([]byte) error) (*client.WindowSummary, error) {
			return cl.WindowRawFrames(ctx, req, emit)
		})
	if err != nil {
		return nil, err
	}
	return mergeWindowSummaries(sums), nil
}

// mergeWindowSummaries sums the summaries of the shards asked: record
// counts add, Indexed requires every one of them indexed, the elapsed
// time is the slowest shard's.
func mergeWindowSummaries(sums []*client.WindowSummary) *client.WindowSummary {
	merged := *sums[0]
	for _, s := range sums[1:] {
		merged.Records += s.Records
		merged.Indexed = merged.Indexed && s.Indexed
		merged.ElapsedMillis = max(merged.ElapsedMillis, s.ElapsedMillis)
	}
	return &merged
}

// Append fans an append out across the fleet: each record goes to
// every shard whose stripe its rectangle overlaps — the same rule
// sjserved -stripe uses to slice a relation at load, so the fleet's
// state after the append is exactly what a fresh fleet loading the
// grown relation would hold, and joins and window queries keep
// returning the single-process answer. Every shard is posted (an
// empty batch is a no-op that still reports the shard's totals), and
// the merged summary sums Records and DeltaRecords across shards,
// takes the maximum Epoch, and reports Appended as the number of
// input records placed.
func (r *Router) Append(ctx context.Context, relation string, recs []client.RecordIn) (*client.AppendSummary, error) {
	ivs, err := r.stripes(ctx)
	if err != nil {
		return nil, err
	}
	placed, err := httpapi.Records(recs)
	if err != nil {
		return nil, err
	}
	batches := make([][]client.RecordIn, len(ivs))
	for i := range batches {
		batches[i] = make([]client.RecordIn, 0, len(recs)/len(ivs)+1)
	}
	for n, rec := range placed {
		for i, iv := range ivs {
			if iv.Loads(rec.Rect) {
				batches[i] = append(batches[i], recs[n])
			}
		}
	}
	sums := make([]*client.AppendSummary, len(r.clients))
	err = r.scatter(ctx, r.all, func(ctx context.Context, i int, cl *client.Client) error {
		s, err := cl.AppendRecords(ctx, relation, batches[i])
		if err != nil {
			return err
		}
		sums[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := &client.AppendSummary{
		Relation: relation,
		Appended: int64(len(recs)),
		Shards:   len(sums),
	}
	for _, s := range sums {
		merged.Records += s.Records
		merged.DeltaRecords += s.DeltaRecords
		if s.Epoch > merged.Epoch {
			merged.Epoch = s.Epoch
		}
		merged.Compacted = merged.Compacted || s.Compacted
	}
	return merged, nil
}

// Relations merges the shards' catalogs by name: record and byte
// counts sum across shards (replicated boundary records count once
// per holding shard), Indexed requires every shard's slice indexed,
// the MBR is the union of the shard slices, and Shards counts how
// many shards hold the relation.
func (r *Router) Relations(ctx context.Context) ([]client.RelationInfo, error) {
	lists := make([][]client.RelationInfo, len(r.clients))
	err := r.scatter(ctx, r.all, func(ctx context.Context, i int, cl *client.Client) error {
		l, err := cl.Relations(ctx)
		if err != nil {
			return err
		}
		lists[i] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*client.RelationInfo)
	var names []string
	for _, list := range lists {
		for _, info := range list {
			m, ok := byName[info.Name]
			if !ok {
				names = append(names, info.Name)
				merged := info
				merged.Stripe = nil
				merged.Shards = 1
				byName[info.Name] = &merged
				continue
			}
			m.Records += info.Records
			m.DataBytes += info.DataBytes
			m.IndexBytes += info.IndexBytes
			m.StripeBytes += info.StripeBytes
			m.Indexed = m.Indexed && info.Indexed
			m.MBR = unionRects(m.MBR, info.MBR)
			m.Shards++
		}
	}
	sort.Strings(names)
	out := make([]client.RelationInfo, 0, len(names))
	for _, name := range names {
		out = append(out, *byName[name])
	}
	return out, nil
}

// Stats aggregates the fleet's counters: request, join, window,
// error, and streaming counters sum; Relations is the largest shard
// catalog; UptimeSeconds is the youngest shard's (how long the whole
// fleet has been up); Shards is the fleet size.
func (r *Router) Stats(ctx context.Context) (*client.Stats, error) {
	stats, err := r.shardStats(ctx)
	if err != nil {
		return nil, err
	}
	agg := client.Stats{Shards: len(stats), UptimeSeconds: math.Inf(1)}
	for i, s := range stats {
		if s.UptimeSeconds < agg.UptimeSeconds {
			agg.UptimeSeconds = s.UptimeSeconds
		}
		if s.Relations > agg.Relations {
			agg.Relations = s.Relations
		}
		agg.Requests += s.Requests
		agg.InFlight += s.InFlight
		agg.Joins += s.Joins
		agg.Windows += s.Windows
		agg.Errors += s.Errors
		agg.Canceled += s.Canceled
		agg.PairsStreamed += s.PairsStreamed
		agg.RecordsStreamed += s.RecordsStreamed
		agg.Appends += s.Appends
		agg.RecordsIngested += s.RecordsIngested
		agg.Compactions += s.Compactions
		agg.DeltaRecords += s.DeltaRecords
		ep := r.endpoints[i]
		agg.ShardStats = append(agg.ShardStats, client.ShardStat{
			Endpoint:        ep,
			Stripe:          s.Stripe,
			Requests:        s.Requests,
			InFlight:        s.InFlight,
			Errors:          s.Errors,
			ScatterRequests: r.obs.latency.With(ep).Count(),
			ScatterErrors:   r.obs.errors.With(ep).Value(),
		})
	}
	return &agg, nil
}

// ToStripe converts an interval to its wire form (nil bounds for the
// infinite sentinels).
func ToStripe(iv Interval) *client.Stripe {
	s := &client.Stripe{}
	if !math.IsInf(float64(iv.Lo), -1) {
		lo := float64(iv.Lo)
		s.Lo = &lo
	}
	if !math.IsInf(float64(iv.Hi), 1) {
		hi := float64(iv.Hi)
		s.Hi = &hi
	}
	return s
}

// FromStripe converts a wire stripe back to an interval.
func FromStripe(s *client.Stripe) Interval {
	iv := Everything()
	if s == nil {
		return iv
	}
	if s.Lo != nil {
		iv.Lo = geom.Coord(*s.Lo)
	}
	if s.Hi != nil {
		iv.Hi = geom.Coord(*s.Hi)
	}
	return iv
}

// unionRects unions two wire rectangles, treating the zero rectangle
// as empty (the wire form of an empty relation's invalid MBR).
func unionRects(a, b client.Rect) client.Rect {
	if a == (client.Rect{}) {
		return b
	}
	if b == (client.Rect{}) {
		return a
	}
	return client.Rect{
		XLo: math.Min(a.XLo, b.XLo), YLo: math.Min(a.YLo, b.YLo),
		XHi: math.Max(a.XHi, b.XHi), YHi: math.Max(a.YHi, b.YHi),
	}
}
