package unijoin

import (
	"fmt"

	"unijoin/internal/geom"
	"unijoin/internal/ingest"
	"unijoin/internal/parallel"
	"unijoin/internal/stream"
)

// This file exports the stripe boundary computation the shard planner
// (internal/shard) and the parallel engine share: quantiles of sampled
// record x-centers, the same boundaries internal/parallel places. The
// sample behind it is cached on the relation's current version —
// computed once, reused by every subsequent parallel query and
// boundary request on that version. Appends carry the sample forward
// by merging in the appended centers (parallel.MergeSamples), so an
// ingesting relation's boundaries keep tracking the data without
// rescanning; a compaction or reload drops the cache and the next
// request resamples the full log.

// sampleFor returns the pinned version's cached sample, reading the
// record stream (charged to the workspace counters like any scan)
// when cold. The sample always strides the records in file order —
// the cold build of the version's prepared run takes it the same way
// before sorting — so the stripe cuts do not depend on whether a
// planner or a join touched the version first.
func sampleFor(v *ingest.Version) ([]Coord, error) {
	return v.Sample(func() ([]geom.Coord, error) {
		recs, err := stream.ReadAll(v.File, stream.Records)
		if err != nil {
			return nil, err
		}
		return parallel.SortedCenterSample(recs), nil
	})
}

// StripeBoundaries returns the k-1 internal boundaries that cut this
// relation into k stripe shards balanced by record x-centers —
// strictly increasing, possibly fewer than k-1 when the sampled
// centers are too clustered to support k distinct stripes. The
// underlying x-center sample is cached on the relation's current
// version and maintained across appends, so repeated calls (and
// parallel queries on the same relation) skip the sample scan and
// sort.
func (r *Relation) StripeBoundaries(k int) ([]Coord, error) {
	if r == nil || r.log == nil {
		return nil, fmt.Errorf("%w: stripe boundaries", ErrNilRelation)
	}
	v := r.snapshot()
	sample, err := sampleFor(v)
	if err != nil {
		return nil, err
	}
	u := r.ws.universeFor(v.MBR)
	return parallel.NewPartitionerFromSamples(u, k, sample).Boundaries(), nil
}

// StripeBoundaries returns the k-1 internal boundaries that cut the
// named relations into k stripe shards, balancing the union of their
// sampled x-centers — the planning step of sharded serving: every
// shard then loads the slice of each relation overlapping its stripe
// and answers joins between any of them. Each relation's sample is
// cached on its current version (maintained across appends,
// invalidated by compaction or reload), so planning over a stable
// catalog is a linear merge of pre-sorted samples with no serial
// sort.
func (c *Catalog) StripeBoundaries(k int, names ...string) ([]Coord, error) {
	if len(names) == 0 {
		names = c.Names()
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unijoin: stripe boundaries need at least one relation")
	}
	samples := make([][]Coord, 0, len(names))
	mbr := geom.EmptyRect()
	for _, name := range names {
		rel, ok := c.Get(name)
		if !ok {
			return nil, fmt.Errorf("unijoin: relation %q is not in the catalog", name)
		}
		v := rel.snapshot()
		sample, err := sampleFor(v)
		if err != nil {
			return nil, err
		}
		samples = append(samples, sample)
		mbr = mbr.Union(v.MBR)
	}
	u := c.ws.universeFor(mbr)
	return parallel.NewPartitionerFromSamples(u, k, samples...).Boundaries(), nil
}
