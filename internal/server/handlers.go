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
)

// maxParallelism caps the per-request worker count: the parallel
// engine sizes partition structures from it, so an unclamped request
// value would let one client allocate the service to death. 256
// workers is far past any host this serves.
const maxParallelism = 256

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
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
	httpapi.WriteJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, s.Stats())
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.metrics.joins.Inc()
	var req client.JoinRequest
	if apiErr := httpapi.DecodeBody(w, r, &req); apiErr != nil {
		httpapi.WriteError(w, apiErr)
		return
	}
	left, ok := s.cat.Get(req.Left)
	if !ok {
		httpapi.WriteError(w, notFoundErr("left", req.Left))
		return
	}
	right, ok := s.cat.Get(req.Right)
	if !ok {
		httpapi.WriteError(w, notFoundErr("right", req.Right))
		return
	}
	alg, err := unijoin.ParseAlgorithm(req.Algorithm)
	if err != nil {
		httpapi.WriteError(w, badRequestErr(err))
		return
	}
	// The workload recorder sees every accepted query: the relation
	// names are catalog-validated above and the algorithm comes from
	// the parsed set, so both are bounded label values.
	s.workload.ObserveQuery(req.Left, alg.String())
	s.workload.ObserveQuery(req.Right, alg.String())
	if req.Window != nil {
		s.workload.ObserveWindow(req.Window.XLo, req.Window.XHi)
	} else {
		s.workload.ObserveUnwindowed()
	}
	ctx, cancel := s.front.Context(r, req.TimeoutMillis)
	defer cancel()
	out := httpapi.NewStream(w, r, s.front.ObserveFrames)
	defer out.Close()
	// flushPairs streams one batch, accumulating the stream phase: wall
	// time spent encoding and flushing (all writes happen on this
	// goroutine — EmitBatch callbacks run synchronously).
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
	start := time.Now()
	res, err := q.Run(ctx)
	if err != nil {
		s.front.Fail(out, errorFor(err))
		return
	}
	if len(pairs) > 0 {
		flushPairs(pairs)
	}
	elapsed := time.Since(start)
	phases := phaseSeconds{
		partition: res.PartitionWall.Seconds(),
		sweep:     res.SweepWall.Seconds(),
		stream:    streamTime.Seconds(),
	}
	s.metrics.observeJoin(alg.String(), elapsed.Seconds(), phases, res.Prepared)
	sum := joinSummary(req, alg, res, elapsed)
	root := joinSpan(start, elapsed, res.PrepareWall, res.PartitionWall, res.SweepWall, streamTime)
	// Which engine ran is the workspace's decision, not the request's:
	// the trace says so, next to the algorithm that was asked for.
	engine := "simulated"
	if res.Parallel != nil {
		engine = "resident"
	}
	root.SetAttr("left", req.Left).SetAttr("right", req.Right).
		SetAttr("algorithm", alg.String()).SetAttr("engine", engine)
	s.front.RecordTrace(r, "join", root)
	if req.Trace {
		sum.Trace = httpapi.PhaseTrace(root)
		sum.Spans = httpapi.SpanDTO(root)
	}
	out.Finish(sum)
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	s.metrics.windows.Inc()
	var req client.WindowRequest
	if apiErr := httpapi.DecodeBody(w, r, &req); apiErr != nil {
		httpapi.WriteError(w, apiErr)
		return
	}
	rel, ok := s.cat.Get(req.Relation)
	if !ok {
		httpapi.WriteError(w, notFoundErr("relation", req.Relation))
		return
	}
	if req.Window == nil {
		httpapi.WriteError(w, badRequestErr(fmt.Errorf("window query needs a \"window\" rectangle")))
		return
	}
	// Window queries always carry a rectangle, so they always feed the
	// x-histogram; the relation name is catalog-validated above.
	s.workload.ObserveQuery(req.Relation, "window")
	s.workload.ObserveWindow(req.Window.XLo, req.Window.XHi)
	ctx, cancel := s.front.Context(r, req.TimeoutMillis)
	defer cancel()
	// Pin once: the slab scan of the epoch's prepared run and the
	// summary's Indexed field (declared indexed, not how the window was
	// answered) must describe the same epoch.
	pv := rel.Pin()
	out := httpapi.NewStream(w, r, s.front.ObserveFrames)
	defer out.Close()

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
	start := time.Now()
	n, err := pv.WindowQuery(ctx, win, emit)
	if err != nil {
		s.front.Fail(out, errorFor(err))
		return
	}
	if len(recs) > 0 {
		flushRecs()
	}
	if s.stripe != nil {
		n = owned
	}
	elapsed := time.Since(start)
	root := windowSpan(start, elapsed, streamTime)
	root.SetAttr("relation", req.Relation)
	s.front.RecordTrace(r, "window", root)
	out.Finish(&client.WindowSummary{
		Relation:      req.Relation,
		Records:       n,
		Indexed:       pv.Indexed(),
		ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
	})
}

// joinSummary assembles the terminal line of a join response. The
// record counts are those of the epochs the join pinned, so they
// describe the inputs the pair count was computed on even when appends
// landed while it ran.
func joinSummary(req client.JoinRequest, alg unijoin.Algorithm, res *unijoin.Results, elapsed time.Duration) *client.JoinSummary {
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
		Name:       name,
		Records:    pv.Len(),
		Indexed:    pv.Indexed(),
		DataBytes:  pv.DataBytes(),
		IndexBytes: pv.IndexBytes(),
	}
	if mbr := pv.MBR(); mbr.Valid() {
		info.MBR = httpapi.FromRect(mbr)
	}
	return info
}

// errorFor classifies a query error into the API's error space.
func errorFor(err error) *client.APIError {
	switch {
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
