package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/httpapi"
	"unijoin/internal/obs"
)

// maxParallelism caps the per-request worker count: the parallel
// engine sizes partition structures from it, so an unclamped request
// value would let one client allocate the service to death. 256
// workers is far past any host this serves.
const maxParallelism = 256

// relations is the body of GET /v1/relations.
func (s *Server) relations(context.Context) ([]client.RelationInfo, error) {
	names := s.cat.Names()
	stripe := s.stripeDTO()
	out := make([]client.RelationInfo, 0, len(names))
	for _, name := range names {
		rel, ok := s.cat.Get(name)
		if !ok { // dropped between Names and Get
			continue
		}
		info := relationInfo(name, rel)
		info.Stripe = stripe
		out = append(out, info)
	}
	return out, nil
}

// join runs a join request on the catalog, streaming its pairs to out.
func (s *Server) join(ctx context.Context, req *client.JoinRequest, out httpapi.Stream) (*client.JoinSummary, *obs.Span, error) {
	s.metrics.joins.Inc()
	root := obs.StartSpan("server.join")
	root.SetAttr("left", req.Left).SetAttr("right", req.Right)
	left, ok := s.cat.Get(req.Left)
	if !ok {
		root.End()
		return nil, root, notFoundErr("left", req.Left)
	}
	right, ok := s.cat.Get(req.Right)
	if !ok {
		root.End()
		return nil, root, notFoundErr("right", req.Right)
	}
	alg, err := unijoin.ParseAlgorithm(req.Algorithm)
	if err != nil {
		root.End()
		return nil, root, badRequestErr(err)
	}
	// flushPairs hands one batch to the stream, accumulating the stream
	// phase: wall time spent packing the batch into the stream's
	// pending buffer plus the writes the flush rule makes inline (a
	// full buffer). EmitBatch callbacks run synchronously, so all of
	// that happens on this goroutine; a linger's write runs on the
	// stream's timer, off it, and is not in the phase.
	var streamTime time.Duration
	flushPairs := func(batch [][2]uint32) {
		s.metrics.pairsStreamed.Add(int64(len(batch)))
		t0 := time.Now()
		out.WritePairs(batch)
		streamTime += time.Since(t0)
	}
	parallelism := min(max(req.Parallelism, 0), maxParallelism)
	q := s.cat.Workspace().Query(left, right).Algorithm(alg).Parallelism(parallelism)
	if req.Window != nil {
		q.Window(httpapi.ToRect(*req.Window))
	}
	// A stripe shard reports only the pairs its interval owns — the
	// reference-point rule (clipped to the window, when there is one)
	// that makes a fleet's summed answers exactly the single-process
	// result. The join kernels apply it, so what arrives here, pairs or
	// a bare count, is already the shard's share.
	if s.stripe != nil {
		q.Owned(s.stripe.Lo, s.stripe.Hi)
	}
	var pairs [][2]uint32
	if req.CountOnly {
		q.CountOnly()
	} else {
		pairs = make([][2]uint32, 0, DefaultBatchPairs)
		q.EmitBatch(func(batch []unijoin.Pair) {
			for _, p := range batch {
				pairs = append(pairs, [2]uint32{p.Left, p.Right})
				if len(pairs) == DefaultBatchPairs {
					flushPairs(pairs)
					pairs = pairs[:0]
				}
			}
		})
	}
	res, err := q.Run(ctx)
	if err == nil && len(pairs) > 0 {
		flushPairs(pairs)
	}
	root.End()
	if err != nil {
		return nil, root, err
	}
	phases := phaseSeconds{
		partition: res.PartitionWall.Seconds(),
		sweep:     res.SweepWall.Seconds(),
		stream:    streamTime.Seconds(),
	}
	// An unwindowed resident join that did not reuse a layout built one;
	// a windowed one lays out stripes for itself alone.
	stripes := res.Parallel != nil && !res.Parallel.Reused && req.Window == nil
	s.metrics.observeJoin(alg.String(), root.Duration.Seconds(), phases, res.Prepared, stripes)
	joinPhases(root, res.PrepareWall, res.PartitionWall, res.SweepWall, streamTime)
	// Which engine ran is the workspace's decision, not the request's:
	// the trace says so, next to the algorithm that was asked for.
	engine := "simulated"
	if res.Parallel != nil {
		engine = "resident"
	}
	root.SetAttr("algorithm", alg.String()).SetAttr("engine", engine)
	return joinSummary(req, alg, res, root.Duration), root, nil
}

// window runs a window query on the catalog, streaming its records to
// out.
func (s *Server) window(ctx context.Context, req *client.WindowRequest, out httpapi.Stream) (*client.WindowSummary, *obs.Span, error) {
	s.metrics.windows.Inc()
	root := obs.StartSpan("server.window")
	root.SetAttr("relation", req.Relation)
	rel, ok := s.cat.Get(req.Relation)
	if !ok {
		root.End()
		return nil, root, notFoundErr("relation", req.Relation)
	}
	if req.Window == nil {
		root.End()
		return nil, root, badRequestErr(fmt.Errorf("window query needs a \"window\" rectangle"))
	}
	// Pin once: the slab scan of the epoch's prepared run and the
	// summary's Indexed field (declared indexed, not how the window was
	// answered) must describe the same epoch.
	pv := rel.Pin()

	// Records accumulate in the kernel's own representation; what a
	// batch becomes on the wire is the stream's business.
	var recs []unijoin.Record
	var streamTime time.Duration
	flushRecs := func() {
		s.metrics.recordsStreamed.Add(int64(len(recs)))
		t0 := time.Now()
		out.WriteRecords(recs)
		streamTime += time.Since(t0)
		recs = recs[:0]
	}
	// In stripe mode only records whose reference point — the left
	// edge of record ∩ window — falls in the stripe are reported: each
	// answer is owned by exactly one shard, one the window reaches, so
	// a router's merged stream has no replicated boundary-record
	// duplicates whichever of the other shards it leaves out — and the
	// count must come from the filtered emit path rather than
	// WindowQuery's total.
	win := httpapi.ToRect(*req.Window)
	var owned int64
	var emit func(unijoin.Record)
	if !req.CountOnly || s.stripe != nil {
		if !req.CountOnly {
			recs = make([]unijoin.Record, 0, DefaultBatchPairs)
		}
		emit = func(rec unijoin.Record) {
			if s.stripe != nil && !s.stripe.OwnsRecord(rec.Rect, win.XLo) {
				return
			}
			owned++
			if req.CountOnly {
				return
			}
			recs = append(recs, rec)
			if len(recs) == DefaultBatchPairs {
				flushRecs()
			}
		}
	}
	n, err := pv.WindowQuery(ctx, win, emit)
	if err == nil && len(recs) > 0 {
		flushRecs()
	}
	root.End()
	if err != nil {
		return nil, root, err
	}
	if s.stripe != nil {
		n = owned
	}
	windowPhases(root, streamTime)
	return &client.WindowSummary{
		Relation:      req.Relation,
		Records:       n,
		Indexed:       pv.Indexed(),
		ElapsedMillis: float64(root.Duration.Microseconds()) / 1000,
	}, root, nil
}

// joinSummary assembles the terminal line of a join response. The
// record counts are those of the epochs the join pinned, so they
// describe the inputs the pair count was computed on even when appends
// landed while it ran.
func joinSummary(req *client.JoinRequest, alg unijoin.Algorithm, res *unijoin.Results, elapsed time.Duration) *client.JoinSummary {
	return &client.JoinSummary{
		Left:          req.Left,
		Right:         req.Right,
		Algorithm:     alg.String(),
		Pairs:         res.Count(),
		LeftRecords:   res.Left.Len(),
		RightRecords:  res.Right.Len(),
		ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
	}
}

// relationInfo maps a cataloged relation to its wire description. An
// empty relation's MBR is the invalid ±Inf rectangle, which JSON
// cannot carry — it is reported as the zero rectangle instead.
func relationInfo(name string, rel *unijoin.Relation) client.RelationInfo {
	pv := rel.Pin()
	info := client.RelationInfo{
		Name:        name,
		Records:     pv.Len(),
		Indexed:     pv.Indexed(),
		DataBytes:   pv.DataBytes(),
		IndexBytes:  pv.IndexBytes(),
		StripeBytes: pv.StripeBytes(),
	}
	if mbr := pv.MBR(); mbr.Valid() {
		info.MBR = httpapi.FromRect(mbr)
	}
	return info
}

// errorFor classifies a query error into the API's error space; the
// server's own verdicts (an unknown relation, a malformed request) are
// already there.
func errorFor(err error) *client.APIError {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		return apiErr
	case errors.Is(err, unijoin.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return &client.APIError{
			Status: http.StatusGatewayTimeout, Code: client.CodeCanceled,
			Message: err.Error(),
		}
	case errors.Is(err, unijoin.ErrNeedsIndex):
		return &client.APIError{
			Status: http.StatusUnprocessableEntity, Code: client.CodeNeedsIndex,
			Message: err.Error(),
		}
	case errors.Is(err, unijoin.ErrNilRelation):
		return &client.APIError{
			Status: http.StatusNotFound, Code: client.CodeNotFound,
			Message: err.Error(),
		}
	default:
		return &client.APIError{
			Status: http.StatusInternalServerError, Code: client.CodeInternal,
			Message: err.Error(),
		}
	}
}

// notFoundErr is the unknown-relation error.
func notFoundErr(side, name string) *client.APIError {
	return &client.APIError{
		Status: http.StatusNotFound, Code: client.CodeNotFound,
		Message: fmt.Sprintf("%s relation %q is not in the catalog", side, name),
	}
}

// badRequestErr wraps a request-shape problem.
func badRequestErr(err error) *client.APIError {
	return &client.APIError{
		Status: http.StatusBadRequest, Code: client.CodeBadRequest,
		Message: err.Error(),
	}
}
