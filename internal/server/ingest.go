package server

import (
	"fmt"
	"net/http"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/httpapi"
)

// handleAppend serves POST /v1/relations/{relation}/records: append
// records to a cataloged relation. The body is one JSON record
// object, a JSON array of them, or — with an NDJSON content type —
// one record per line (the bulk format sjgen -ndjson emits). The
// append is atomic: all records land in one new epoch, visible to
// every query started after the 200 response, invisible to queries
// already running. In stripe mode the shard keeps only the records
// overlapping its stripe, exactly the slice it would have loaded at
// startup, so a router fanning an append across a fleet reproduces
// the single-process state.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.metrics.appends.Inc()
	name := r.PathValue("relation")
	rel, ok := s.cat.Get(name)
	if !ok {
		httpapi.WriteError(w, notFoundErr("append", name))
		return
	}
	ins, err := client.ParseRecords(r.Header.Get("Content-Type"),
		http.MaxBytesReader(w, r.Body, httpapi.MaxAppendBodyBytes))
	if err != nil {
		httpapi.WriteError(w, badRequestErr(err))
		return
	}
	recs := make([]unijoin.Record, 0, len(ins))
	for i, in := range ins {
		rec := unijoin.Record{ID: unijoin.ID(in.ID), Rect: httpapi.ToRect(in.Rect)}
		if !rec.Rect.Valid() || !rec.Rect.Finite() {
			httpapi.WriteError(w, badRequestErr(fmt.Errorf("record %d (id %d) has an invalid or non-finite rectangle", i, in.ID)))
			return
		}
		recs = append(recs, rec)
	}
	if s.stripe != nil {
		kept := recs[:0]
		for _, rec := range recs {
			if s.stripe.Loads(rec.Rect) {
				kept = append(kept, rec)
			}
		}
		recs = kept
	}
	start := time.Now()
	res, aerr := rel.Append(recs)
	if aerr != nil {
		httpapi.WriteError(w, errorFor(aerr))
		return
	}
	delta := rel.Pin().DeltaRecords()
	s.metrics.observeIngest(name, int64(res.Appended), time.Since(start).Seconds(), res.Compacted, delta)
	httpapi.WriteJSON(w, client.AppendSummary{
		Relation:     name,
		Appended:     int64(res.Appended),
		Records:      res.Total,
		Epoch:        res.Epoch,
		DeltaRecords: delta,
		Compacted:    res.Compacted,
	})
}
