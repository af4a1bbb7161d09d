package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unijoin/client"
	"unijoin/internal/geom"
)

// Load model. Every workload is a closed loop: each client goroutine
// owns one keep-alive connection and sends its next request only when
// the previous reply is fully decoded — the callers are analytics jobs
// and map front-ends that wait for each answer. With clients ≤ nproc
// the fleet is never overloaded, so a failed op is a correctness
// signal, not shedding. The one exception is the appender of
// routed_ingest: an open loop on a fixed schedule, timed from when
// each batch was due.

const (
	// loadClients is the number of client goroutines (and connections)
	// per workload, sized to the 2-core box the bounds were measured on.
	loadClients = 2
	// warmupOps is how many primary ops each client sends before the
	// measured window. It is a count, not a duration, so work a later
	// PR moves into lazy set-up lengthens setup_s instead of vanishing.
	warmupOps = 5
	// opTimeout bounds one op; a timeout is a failed op.
	opTimeout = 10 * time.Second
	// minSamples is the fewest primary ops a measured round may
	// collect: below it p95 has fewer than ten samples beyond it.
	minSamples = 200
	// windowRecheckEvery selects the window queries whose full answer
	// is re-checked against a linear scan after the round.
	windowRecheckEvery = 64
	// minCompactions is how often each shard should compact in one
	// routed_ingest round for the workload to exercise what it claims.
	minCompactions = 2
)

// opFunc is one primary operation of a workload. It returns an error
// when the request failed or the answer was wrong. With traced set a
// join asks the fleet for its span tree and returns the summary that
// carries it (window summaries carry none; their traces are fetched by
// request ID afterwards).
type opFunc func(ctx context.Context, traced bool) (*client.JoinSummary, error)

// roundPlan is what one workload contributes to a round: the op each
// closed-loop client repeats, an optional paced appender, and checks
// to run against the live fleet once the measured window has closed.
type roundPlan struct {
	ops      []opFunc
	appender *appender
	// after returns how many extra checks it made and the failures.
	after func(ctx context.Context) (attempted int, failures []error)
}

// workload is one traffic mix against one fleet shape.
type workload struct {
	Name string
	Why  string
	// routed selects 3 striped shards behind a router over one direct
	// server; endpoint is the shards' sj_requests_total label of the
	// primary op.
	routed   bool
	endpoint string
	// data picks the dataset (generating it on first use).
	data func(e *env) (*dataset, error)
	// plan builds the round's clients against the fleet's front URL.
	plan func(e *env, d *dataset, front string) *roundPlan
}

// workloads lists the benchmark's traffic mixes in report order.
var workloads = []*workload{
	{
		Name: "direct_count", Why: "engine-bound: count-only parallel join on one sjserved; store read, sort, partition and sweep with no ownership filter, encode, relay or decode",
		endpoint: "join", data: (*env).tigerData, plan: planDirectCount,
	},
	{
		Name: "routed_stream", Why: "per-pair path: full PQ join streamed as binary frames through the router; the only workload paying ownership lookup, frame encode, relay and client decode for every pair",
		routed: true, endpoint: "join", data: (*env).uniformData, plan: planRoutedStream,
	},
	{
		Name: "routed_window", Why: "per-request-overhead-bound: small NDJSON window queries scattered to every shard; HTTP, scatter, tree descent, tracing and JSON render of a few dozen records",
		routed: true, endpoint: "window", data: (*env).tigerData, plan: planRoutedWindow,
	},
	{
		Name: "routed_ingest", Why: "epoch churn: count-only joins racing a paced appender; new epoch per join, ownership tables rebuilt, indexed write path and compactions",
		routed: true, endpoint: "join", data: (*env).uniformData, plan: planRoutedIngest,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// newClient returns a client with a private single-connection
// transport: one keep-alive connection per client goroutine.
func newClient(baseURL string, binary bool) *client.Client {
	cl := client.New(baseURL, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute,
	}})
	cl.PreferBinary = binary
	return cl
}

// planDirectCount: count-only join of the TIGER-like relations on the
// in-memory parallel engine with one worker.
func planDirectCount(_ *env, d *dataset, front string) *roundPlan {
	req := client.JoinRequest{
		Left: d.Left.Name, Right: d.Right.Name,
		Algorithm: "parallel", Parallelism: 1, CountOnly: true,
	}
	plan := &roundPlan{}
	for range loadClients {
		cl := newClient(front, false)
		plan.ops = append(plan.ops, func(ctx context.Context, traced bool) (*client.JoinSummary, error) {
			req := req
			req.Trace = traced
			sum, err := cl.Join(ctx, req, nil)
			switch {
			case err != nil:
				return nil, err
			case sum.Pairs != d.Join.Pairs:
				return sum, fmt.Errorf("join counted %d pairs, reference %d", sum.Pairs, d.Join.Pairs)
			}
			return sum, nil
		})
	}
	return plan
}

// planRoutedStream: the paper's PQ join with every pair delivered to
// the caller over the binary frame transport.
func planRoutedStream(_ *env, d *dataset, front string) *roundPlan {
	req := client.JoinRequest{Left: d.Left.Name, Right: d.Right.Name, Algorithm: "PQ"}
	plan := &roundPlan{}
	for range loadClients {
		cl := newClient(front, true)
		plan.ops = append(plan.ops, func(ctx context.Context, traced bool) (*client.JoinSummary, error) {
			var got joinRef
			req := req
			req.Trace = traced
			sum, err := cl.JoinBatches(ctx, req, func(pairs [][2]uint32) {
				for _, p := range pairs {
					got.add(p[0], p[1])
				}
			})
			switch {
			case err != nil:
				return nil, err
			case got.Pairs != sum.Pairs:
				return sum, fmt.Errorf("stream delivered %d pairs, summary says %d", got.Pairs, sum.Pairs)
			case got != d.Join:
				return sum, fmt.Errorf("stream delivered %d pairs (checksum %x), reference %d (%x)",
					got.Pairs, got.Sum, d.Join.Pairs, d.Join.Sum)
			}
			return sum, nil
		})
	}
	return plan
}

// windowCheck is one window query kept for the post-round recheck.
type windowCheck struct {
	win geom.Rect
	got windowRef
}

// planRoutedWindow: small window queries over NDJSON, each centred on
// a seeded-random left-relation record so queries follow the data.
// Every answer must deliver as many records as its summary claims;
// every windowRecheckEvery-th is also compared with a linear scan
// after the round (kept out of the loop so the generator stays cheap).
func planRoutedWindow(e *env, d *dataset, front string) *roundPlan {
	plan := &roundPlan{}
	kept := make([][]windowCheck, loadClients)
	for c := range loadClients {
		cl := newClient(front, false)
		rng := newWindowRNG(e.cfg.Seed, c)
		n := 0
		plan.ops = append(plan.ops, func(ctx context.Context, _ bool) (*client.JoinSummary, error) {
			win := windowAround(d.Universe, d.Left.Recs[rng.Intn(len(d.Left.Recs))])
			var got windowRef
			wire := wireRect(win)
			sum, err := cl.Window(ctx, client.WindowRequest{Relation: d.Left.Name, Window: &wire}, func(r client.RecordOut) {
				got.Records++
				got.IDSum += uint64(r.ID)
			})
			if err != nil {
				return nil, err
			}
			if got.Records != sum.Records {
				return nil, fmt.Errorf("window delivered %d records, summary says %d", got.Records, sum.Records)
			}
			if n++; n%windowRecheckEvery == 0 {
				kept[c] = append(kept[c], windowCheck{win, got})
			}
			return nil, nil
		})
	}
	plan.after = func(context.Context) (int, []error) {
		var attempted int
		var failures []error
		for _, checks := range kept {
			for _, ck := range checks {
				attempted++
				if want := referenceWindow(d.Left.Recs, ck.win); ck.got != want {
					failures = append(failures, fmt.Errorf("window %v returned %d records (id sum %d), linear scan %d (%d)",
						ck.win, ck.got.Records, ck.got.IDSum, want.Records, want.IDSum))
				}
			}
		}
		return attempted, failures
	}
	return plan
}

// planRoutedIngest: one closed-loop client counting a ⋈ b while the
// second client appends to a on a schedule. A join's count must be one
// the reference explains for the batches in flight around it, and a
// final join after the appender stopped must match the full prefix.
func planRoutedIngest(e *env, d *dataset, front string) *roundPlan {
	req := client.JoinRequest{
		Left: d.Left.Name, Right: d.Right.Name,
		Algorithm: "parallel", Parallelism: 1, CountOnly: true,
	}
	app := &appender{cl: newClient(front, false), relation: d.Left.Name, batches: e.appendBodies, period: time.Second / appendPerSec}
	joiner := newClient(front, false)
	plan := &roundPlan{appender: app}
	plan.ops = []opFunc{func(ctx context.Context, traced bool) (*client.JoinSummary, error) {
		lo := int(app.acked.Load())
		req := req
		req.Trace = traced
		sum, err := joiner.Join(ctx, req, nil)
		if err != nil {
			return nil, err
		}
		hi := int(app.sent.Load())
		ok, whole := e.prefix.explains(sum.Pairs, lo, hi)
		if !ok {
			return sum, fmt.Errorf("join counted %d pairs; no append prefix in [%d, %d] explains it (reference %d..%d)",
				sum.Pairs, lo, hi, e.prefix.total(lo), e.prefix.total(min(hi, len(e.batches))))
		}
		if !whole {
			app.mixed.Add(1)
		}
		return sum, nil
	}}
	plan.after = func(ctx context.Context) (int, []error) {
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		sum, err := joiner.Join(ctx, req, nil)
		acked := int(app.acked.Load())
		switch {
		case err != nil:
			return 1, []error{fmt.Errorf("final join: %w", err)}
		case sum.Pairs != e.prefix.total(acked):
			return 1, []error{fmt.Errorf("final join counted %d pairs after %d batches, reference %d",
				sum.Pairs, acked, e.prefix.total(acked))}
		}
		return 1, nil
	}
	return plan
}

// appender is the open-loop writer of routed_ingest: batch k is due at
// start + k·period whatever happened to batch k-1. It owns one
// connection, so a slow append delays the next one; that delay is the
// generator lateness it reports, and each append's latency is timed
// from its due time so a stall is charged to every batch it held up.
type appender struct {
	cl       *client.Client
	relation string
	batches  [][]client.RecordIn
	period   time.Duration

	sent, acked atomic.Int64 // batches written / acknowledged
	mixed       atomic.Int64 // joins that saw shards at different prefixes

	// Filled by run, read after it returned.
	latencyMS []float64 // due → acknowledged
	lateMS    []float64 // due → request written
	failures  []error
}

// run appends on schedule until stop closes (or the batches run out,
// which is a sizing bug and reported as a failure).
func (a *appender) run(ctx context.Context, stop <-chan struct{}) {
	start := time.Now()
	for k, batch := range a.batches {
		due := start.Add(time.Duration(k) * a.period)
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		sendAt := time.Now()
		a.sent.Add(1)
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		sum, err := a.cl.AppendRecords(octx, a.relation, batch)
		cancel()
		if err == nil && sum.Appended != int64(len(batch)) {
			err = fmt.Errorf("append placed %d of %d records", sum.Appended, len(batch))
		}
		if err != nil {
			a.failures = append(a.failures, fmt.Errorf("append %d: %w", k, err))
			continue
		}
		a.acked.Add(1)
		a.latencyMS = append(a.latencyMS, float64(time.Since(due))/1e6)
		a.lateMS = append(a.lateMS, float64(sendAt.Sub(due))/1e6)
	}
	a.failures = append(a.failures, fmt.Errorf("appender ran out of its %d batches", len(a.batches)))
}

// sample is one primary op as the client saw it.
type sample struct {
	client  int
	reqID   string
	start   time.Time
	latency time.Duration
	traced  bool                // the op carried a request ID and asked for spans
	sum     *client.JoinSummary // traced joins only
	err     error
}

// loadResult is what one measured window produced.
type loadResult struct {
	samples []sample
	window  time.Duration // first request written → last reply decoded
}

// runLoad warms every client up with warmupOps ops, calls measured,
// then drives the closed loops for d and returns every op of the
// measured window. The appender, if any, runs from before the warm-up
// until the window closes. An op in flight at the deadline completes
// and counts; the window is as long as the slowest client ran.
// idPrefix, when non-empty, makes every second op of the window a
// traced one: it carries a fixed request ID and asks for its span
// tree. Alternating within one window lets the traced and untraced
// latencies be compared free of the box's drift between rounds.
func runLoad(ctx context.Context, plan *roundPlan, d time.Duration, idPrefix string, measured func()) (*loadResult, error) {
	res := &loadResult{}
	stopAppender := make(chan struct{})
	var appenderDone sync.WaitGroup
	if plan.appender != nil {
		appenderDone.Add(1)
		go func() {
			defer appenderDone.Done()
			plan.appender.run(ctx, stopAppender)
		}()
	}
	defer func() {
		close(stopAppender)
		appenderDone.Wait()
	}()

	do := func(c, n int, op opFunc) sample {
		s := sample{client: c}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		if idPrefix != "" && n >= 0 && n%2 == 0 {
			s.traced = true
			s.reqID = fmt.Sprintf("%s-c%d-%d", idPrefix, c, n)
			octx = client.WithRequestID(octx, s.reqID)
		}
		s.start = time.Now()
		s.sum, s.err = op(octx, s.traced)
		s.latency = time.Since(s.start)
		return s
	}

	// Warm-up: a fixed count per client, all clients at once. A failed
	// warm-up op fails the round — the fleet is not answering.
	warm := make([]error, len(plan.ops))
	var wg sync.WaitGroup
	for c, op := range plan.ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range warmupOps {
				if s := do(c, -1-n, op); s.err != nil {
					warm[c] = fmt.Errorf("warm-up op: %w", s.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range warm {
		if err != nil {
			return nil, err
		}
	}
	if measured != nil {
		measured()
	}

	perClient := make([][]sample, len(plan.ops))
	begin := time.Now()
	deadline := begin.Add(d)
	for c, op := range plan.ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				perClient[c] = append(perClient[c], do(c, n, op))
			}
		}()
	}
	wg.Wait()
	res.window = time.Since(begin)
	for _, s := range perClient {
		res.samples = append(res.samples, s...)
	}
	return res, ctx.Err()
}
