package server

import (
	"context"
	"time"

	"unijoin/client"
	"unijoin/internal/httpapi"
)

// appendRecords applies the records of one POST
// /v1/relations/{relation}/records to a cataloged relation. The append
// is atomic: all records land in one new epoch, visible to every query
// started after the 200 response, invisible to queries already
// running. In stripe mode the shard keeps only the records overlapping
// its stripe, exactly the slice it would have loaded at startup, so a
// router fanning an append across a fleet reproduces the
// single-process state.
func (s *Server) appendRecords(_ context.Context, name string, ins []client.RecordIn) (*client.AppendSummary, error) {
	s.metrics.appends.Inc()
	recs, err := httpapi.Records(ins)
	if err != nil {
		return nil, err
	}
	rel, ok := s.cat.Get(name)
	if !ok {
		return nil, notFoundErr("append", name)
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
	res, err := rel.Append(recs)
	if err != nil {
		return nil, err
	}
	delta := rel.Pin().DeltaRecords()
	s.metrics.observeIngest(name, int64(res.Appended), time.Since(start).Seconds(), res.Compacted, delta)
	return &client.AppendSummary{
		Relation:     name,
		Appended:     int64(res.Appended),
		Records:      res.Total,
		Epoch:        res.Epoch,
		DeltaRecords: delta,
		Compacted:    res.Compacted,
	}, nil
}
