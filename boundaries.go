package unijoin

import (
	"fmt"

	"unijoin/internal/geom"
	"unijoin/internal/parallel"
)

// This file exports the stripe boundary computation the shard planner
// (internal/shard) and the parallel engine share: quantiles of sampled
// record x-centers, the same boundaries internal/parallel places. The
// sample behind it is the relation's current version's
// (ingest.Version.Sample): taken from the records in log order when
// the relation is loaded and at each compaction, and carried across
// appends by merging in the appended centers (parallel.MergeSamples),
// so an ingesting relation's boundaries keep tracking the data without
// rescanning, and no boundary request or query reads a page for it.

// StripeBoundaries returns the k-1 internal boundaries that cut this
// relation into k stripe shards balanced by record x-centers —
// strictly increasing, possibly fewer than k-1 when the sampled
// centers are too clustered to support k distinct stripes. The
// underlying x-center sample is held by the relation's current
// version and maintained across appends, so no call scans or sorts.
func (r *Relation) StripeBoundaries(k int) ([]Coord, error) {
	if r == nil || r.log == nil {
		return nil, fmt.Errorf("%w: stripe boundaries", ErrNilRelation)
	}
	v := r.snapshot()
	u := r.ws.universeFor(v.MBR)
	return parallel.NewPartitionerFromSamples(u, k, v.Sample()).Boundaries(), nil
}

// StripeBoundaries returns the k-1 internal boundaries that cut the
// named relations into k stripe shards, balancing the union of their
// sampled x-centers — the planning step of sharded serving: every
// shard then loads the slice of each relation overlapping its stripe
// and answers joins between any of them. Each relation's sample is
// held by its current version (maintained across appends, retaken at
// compaction), so planning is a linear merge of pre-sorted samples
// with no serial sort.
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
		samples = append(samples, v.Sample())
		mbr = mbr.Union(v.MBR)
	}
	u := c.ws.universeFor(mbr)
	return parallel.NewPartitionerFromSamples(u, k, samples...).Boundaries(), nil
}
