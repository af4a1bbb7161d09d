package core

import (
	"context"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/rtree"
	"unijoin/internal/stream"
)

// This file implements the two prior approaches to the one-index case
// ("Lo and Ravishankar discuss the case where only one of the
// relations has an index", Section 2 of the paper), as comparison
// points for the paper's unified answer (PQ, which simply sorts the
// non-indexed side):
//
//   - INL: indexed nested loop — scan the non-indexed relation and run
//     a window query against the index per record (the strategy Lo and
//     Ravishankar use inside partitions in their hash join [23]).
//   - SeededTreeJoin: build a seeded tree over the non-indexed
//     relation using the existing index as a seed [21], then run the
//     synchronized traversal.

// INL joins an indexed relation (left) with a non-indexed one (right)
// by probing the index with every record of the stream, through a
// buffer pool so that the clustered probes of spatially sorted data
// hit cached upper levels. Output pairs are (tree record, stream
// record) with the tree side as Left.
//
// INL's cost profile is the classic one: cheap for tiny outer
// relations, catastrophic as the outer grows (one index descent per
// record); the `oneindex` experiment shows the crossover against PQ
// and the seeded tree.
func INL(ctx context.Context, opts Options, tree *rtree.Tree, b *iosim.File) (Result, error) {
	if tree == nil {
		return Result{}, needsIndexErr("INL")
	}
	return run(ctx, opts, "INL", func(ctx context.Context, o Options, res *Result) error {
		pool := iosim.NewBufferPoolBytes(o.Store, o.BufferPoolBytes)
		rd := stream.NewReader(b, stream.Records)
		for n := 0; ; n++ {
			// One check per probe window: each probe is a full index
			// descent, so this keeps cancellation prompt without a
			// measurable cost.
			if n&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rec, ok, err := rd.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			probe := rec
			if err := tree.Query(pool, probe.Rect, func(hit geom.Record) {
				o.emitPair(&res.Pairs, hit, probe)
			}); err != nil {
				return err
			}
		}
		res.PageRequests = pool.Misses()
		res.LogicalRequests = pool.Requests()
		return nil
	})
}

// SeededTreeJoin implements Lo and Ravishankar's strategy [21] for the
// one-index case: construct an index for the non-indexed relation
// seeded from the existing index's root regions (rtree.SeededBuild),
// then run the synchronized traversal of [8] on the two trees. The
// seeded tree construction is charged to the result's I/O and CPU,
// since building it is the whole point of comparing against PQ, which
// needs only a sort.
func SeededTreeJoin(ctx context.Context, opts Options, tree *rtree.Tree, b *iosim.File) (Result, error) {
	if tree == nil {
		return Result{}, needsIndexErr("seeded-tree join")
	}
	return run(ctx, opts, "SeededST", func(ctx context.Context, o Options, res *Result) error {
		buildOpts := rtree.DefaultBuildOptions()
		buildOpts.SortMemory = o.MemoryBytes
		seeded, err := rtree.SeededBuild(o.Store, tree, b, buildOpts)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		inner, err := ST(ctx, o, tree, seeded)
		if err != nil {
			return err
		}
		res.Pairs = inner.Pairs
		res.PageRequests = inner.PageRequests
		res.LogicalRequests = inner.LogicalRequests
		res.Sweep = inner.Sweep
		return nil
	})
}
