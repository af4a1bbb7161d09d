package server

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// In stripe mode every emitted pair pays the shard ownership
	// test — the reference-point rule that makes a fleet's summed
	// answers exactly the single-process result — so even count-only
	// joins must see the pairs: kernel counting would count pairs
	// this shard does not own.
	var ownsPair func(l, rr uint32) bool
	if s.stripe != nil {
		leftXLo, apiErr := s.xloTable(ctx, left)
		if apiErr != nil {
			httpapi.WriteError(w, apiErr)
			return
		}
		rightXLo, apiErr := s.xloTable(ctx, right)
		if apiErr != nil {
			httpapi.WriteError(w, apiErr)
			return
		}
		// A lookup miss means the join pinned an epoch newer than the
		// cached table (records appended between the table fetch and
		// Run). Records are append-only, so rebuilding at the current
		// epoch — a superset of every pinned version — resolves the ID
		// exactly; the EmitBatch callbacks run on this goroutine, so
		// swapping the table handle is race-free.
		lookup := func(table **xloLookup, rel *unijoin.Relation, id uint32) (unijoin.Coord, bool) {
			if x, ok := (*table).get(id); ok {
				return x, true
			}
			fresh, apiErr := s.xloTable(ctx, rel)
			if apiErr != nil {
				return 0, false
			}
			*table = fresh
			return fresh.get(id)
		}
		ownsPair = func(l, rr uint32) bool {
			lx, ok := lookup(&leftXLo, left, l)
			if !ok {
				return false
			}
			rx, ok := lookup(&rightXLo, right, rr)
			if !ok {
				return false
			}
			return s.stripe.OwnsPair(lx, rx)
		}
	}

	parallelism := min(max(req.Parallelism, 0), maxParallelism)
	q := s.cat.Workspace().Query(left, right).Algorithm(alg).Parallelism(parallelism)
	if req.Window != nil {
		q.Window(toRect(*req.Window))
	}
	var owned int64
	var pairs [][2]uint32
	if req.CountOnly && ownsPair == nil {
		q.CountOnly()
	} else {
		if !req.CountOnly {
			pairs = make([][2]uint32, 0, s.batch)
		}
		q.EmitBatch(func(batch []unijoin.Pair) {
			for _, p := range batch {
				if ownsPair != nil && !ownsPair(p.Left, p.Right) {
					continue
				}
				owned++
				if req.CountOnly {
					continue
				}
				pairs = append(pairs, [2]uint32{p.Left, p.Right})
				if len(pairs) == s.batch {
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
	count := res.Count()
	if ownsPair != nil {
		count = owned
	}
	phases := phaseSeconds{
		partition: res.PartitionWall.Seconds(),
		sweep:     res.SweepWall.Seconds(),
		stream:    streamTime.Seconds(),
	}
	s.metrics.observeJoin(alg.String(), elapsed.Seconds(), phases, res.Prepared)
	sum := joinSummary(req, alg, res, count, elapsed)
	root := joinSpan(start, elapsed, res.PrepareWall, res.PartitionWall, res.SweepWall, streamTime)
	root.SetAttr("left", req.Left).SetAttr("right", req.Right).
		SetAttr("algorithm", alg.String())
	s.front.RecordTrace(r, "join", root)
	if req.Trace {
		sum.Trace = httpapi.PhaseTrace(root)
		sum.Spans = httpapi.SpanDTO(root)
	}
	out.Finish(sum)
}

// xloLookup maps record IDs to left edges for the ownership test.
// Every built-in generator and sjgen assigns dense 0..n-1 IDs to a
// relation, but IDs are global and a shard of a K-fleet holds only
// about one in K of them, so what a shard sees is a space with holes.
// Up to eight ID slots per record (one stripe of an eight-shard fleet)
// the representation is still a slice indexed by ID — two orders
// cheaper per lookup than map hashing in the per-pair hot loop, at no
// more than 32 bytes a record; absent IDs hold a NaN marker so a hole
// reads as a miss, not a zero edge. Sparser ID spaces (arbitrary -load
// files) fall back to a map. The table is stamped with the relation's
// epoch at build time: an append or compaction bumps the epoch and so
// invalidates the cache entry, which is how the table tracks a
// live-ingesting relation.
type xloLookup struct {
	epoch  int64
	dense  []unijoin.Coord
	sparse map[uint32]unijoin.Coord
}

func (l *xloLookup) get(id uint32) (unijoin.Coord, bool) {
	if l.dense != nil {
		if int64(id) < int64(len(l.dense)) {
			x := l.dense[id]
			if x == x { // not the NaN hole marker
				return x, true
			}
		}
		return 0, false
	}
	x, ok := l.sparse[id]
	return x, ok
}

// xloTable returns the relation's ID → left-edge lookup for its
// current epoch, rebuilding when the cached table is stale (the
// relation was appended to or compacted) by scanning the relation.
// The epoch stamp is read before the scan, so it never overstates
// what the table contains. Building a table also evicts cached tables
// whose relation has been dropped or reloaded out of the catalog, so
// repeated Drop+Load cycles on a long-lived embedded server cannot
// accumulate orphaned tables.
func (s *Server) xloTable(ctx context.Context, rel *unijoin.Relation) (*xloLookup, *client.APIError) {
	// One pin serves the epoch stamp, the size hint, and the scan, so
	// the cached table can never mix epochs.
	pv := rel.Pin()
	epoch := pv.Epoch()
	if v, ok := s.xlo.Load(rel); ok {
		if t := v.(*xloLookup); t.epoch == epoch {
			return t, nil
		}
	}
	s.xlo.Range(func(key, _ any) bool {
		old := key.(*unijoin.Relation)
		if cur, ok := s.cat.Get(old.Name()); !ok || cur != old {
			s.xlo.Delete(key)
		}
		return true
	})
	type entry struct {
		id  uint32
		xlo unijoin.Coord
	}
	entries := make([]entry, 0, pv.Len())
	maxID := uint32(0)
	if mbr := pv.MBR(); mbr.Valid() {
		if _, err := pv.WindowQuery(ctx, mbr, func(rec unijoin.Record) {
			entries = append(entries, entry{rec.ID, rec.Rect.XLo})
			if rec.ID > maxID {
				maxID = rec.ID
			}
		}); err != nil {
			return nil, errorFor(err)
		}
	}
	table := &xloLookup{epoch: epoch}
	if len(entries) > 0 && int64(maxID) < 8*int64(len(entries)) {
		table.dense = make([]unijoin.Coord, maxID+1)
		nan := unijoin.Coord(math.NaN())
		for i := range table.dense {
			table.dense[i] = nan
		}
		for _, e := range entries {
			table.dense[e.id] = e.xlo
		}
	} else {
		table.sparse = make(map[uint32]unijoin.Coord, len(entries))
		for _, e := range entries {
			table.sparse[e.id] = e.xlo
		}
	}
	s.xlo.Store(rel, table)
	return table, nil
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
	// Pin once: the scan and the summary's Indexed field must describe
	// the same epoch.
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
	// In stripe mode only records whose left edge falls in the
	// stripe are reported — each record is owned by exactly one
	// shard, so a router's merged stream has no replicated
	// boundary-record duplicates — and the count must come from the
	// filtered emit path rather than WindowQuery's total.
	var owned int64
	var emit func(unijoin.Record)
	if !req.CountOnly || s.stripe != nil {
		if !req.CountOnly {
			recs = make([]unijoin.Record, 0, s.batch)
		}
		emit = func(rec unijoin.Record) {
			if s.stripe != nil && !s.stripe.OwnsRecord(rec.Rect) {
				return
			}
			owned++
			if req.CountOnly {
				return
			}
			recs = append(recs, rec)
			if len(recs) == s.batch {
				flushRecs()
			}
		}
	}
	start := time.Now()
	n, err := pv.WindowQuery(ctx, toRect(*req.Window), emit)
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
func joinSummary(req client.JoinRequest, alg unijoin.Algorithm, res *unijoin.Results, pairs int64, elapsed time.Duration) *client.JoinSummary {
	return &client.JoinSummary{
		Left:          req.Left,
		Right:         req.Right,
		Algorithm:     alg.String(),
		Pairs:         pairs,
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
		info.MBR = fromRect(mbr)
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

// toRect converts a wire rectangle to a normalized unijoin.Rect.
func toRect(r client.Rect) unijoin.Rect {
	return unijoin.NewRect(
		unijoin.Coord(r.XLo), unijoin.Coord(r.YLo),
		unijoin.Coord(r.XHi), unijoin.Coord(r.YHi),
	)
}

// fromRect converts a unijoin.Rect to its wire form.
func fromRect(r unijoin.Rect) client.Rect {
	return client.Rect{
		XLo: float64(r.XLo), YLo: float64(r.YLo),
		XHi: float64(r.XHi), YHi: float64(r.YHi),
	}
}
