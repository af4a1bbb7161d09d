package unijoin_test

// Benchmarks regenerating each table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark
// runs the corresponding experiment end to end — data generation,
// index construction, join, and cost accounting on the simulated
// machines — at a reduced scale chosen so `go test -bench=.` finishes
// in minutes. Run `go run ./cmd/sjbench` for the full printed tables
// at the default 1/100 scale, or pass -scale to push further.
//
// Benchmark output is wall time of the whole experiment on the host;
// the interesting simulated numbers are printed by sjbench and
// recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"math"
	"testing"
	"unijoin"

	"unijoin/internal/datagen"
	"unijoin/internal/experiments"
	"unijoin/internal/parallel"
	"unijoin/internal/rtree"
	"unijoin/internal/shard"
	"unijoin/internal/tiger"
)

// benchConfig scales the experiments for benchmarking: all six data
// sets at 1/500 of the paper's sizes (large enough that every tree
// outgrows the scaled buffer pool on the DISK sets).
func benchConfig(b *testing.B) experiments.Config {
	cfg := experiments.Config{
		Tiger: tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40},
	}
	if testing.Short() {
		cfg.Sets = []string{"NJ", "NY"}
	}
	return cfg
}

// runExperiment executes one registry experiment b.N times.
func runExperiment(b *testing.B, id string) {
	cfg := benchConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunTable(context.Background(), id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTable1MachineModels regenerates Table 1 (machine constants
// and derived random/sequential cost ratios).
func BenchmarkTable1MachineModels(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2DatasetBuild regenerates Table 2: data set sizes,
// R-tree sizes, and join output cardinalities.
func BenchmarkTable2DatasetBuild(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3PQMemory regenerates Table 3: the PQ join's priority
// queue and sweep structure memory high-water marks.
func BenchmarkTable3PQMemory(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4PageRequests regenerates Table 4: pages requested by
// PQ (optimal) and ST (pool-dependent) against the lower bound.
func BenchmarkTable4PageRequests(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig2EstimatedVsObserved regenerates Figure 2: estimated
// versus observed PQ/ST costs on all three machines.
func BenchmarkFig2EstimatedVsObserved(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3AllAlgorithms regenerates Figure 3: observed costs of
// SSSJ, PBSM, PQ, and ST on all three machines.
func BenchmarkFig3AllAlgorithms(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkSelectiveCrossover regenerates the Section 6.3 selective
// join sweep with the cost-model crossover.
func BenchmarkSelectiveCrossover(b *testing.B) {
	cfg := experiments.Config{
		Tiger: tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40},
		Sets:  []string{"DISK1"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Selective(context.Background(), cfg, "DISK1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneIndexStrategies compares the strategies for the
// one-index case the paper's Section 2 surveys: unified PQ, seeded
// tree + ST, indexed nested loop, and ignoring the index.
func BenchmarkOneIndexStrategies(b *testing.B) {
	cfg := experiments.Config{
		Tiger: tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40},
		Sets:  []string{"DISK1"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OneIndex(context.Background(), cfg, "DISK1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFRJVsST compares depth-first and breadth-first index joins
// across buffer pool sizes.
func BenchmarkBFRJVsST(b *testing.B) {
	cfg := experiments.Config{
		Tiger: tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40},
		Sets:  []string{"DISK1"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BFRJCompare(context.Background(), cfg, "DISK1"); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks (design choices DESIGN.md calls out).

// BenchmarkAblationSweepStructures compares Striped- and Forward-Sweep
// inside SSSJ (the 2-5x claim of Arge et al. [4]).
func BenchmarkAblationSweepStructures(b *testing.B) { runExperiment(b, "abl-sweep") }

// BenchmarkAblationSTBufferPool sweeps ST's buffer pool size.
func BenchmarkAblationSTBufferPool(b *testing.B) { runExperiment(b, "abl-pool") }

// BenchmarkAblationPackingPolicy compares 75%+20% packing with 100%.
func BenchmarkAblationPackingPolicy(b *testing.B) { runExperiment(b, "abl-pack") }

// BenchmarkAblationPBSMTiles compares PBSM tile resolutions.
func BenchmarkAblationPBSMTiles(b *testing.B) { runExperiment(b, "abl-tiles") }

// BenchmarkAblationPQLeafStreaming quantifies the Section 4
// leaf-streaming optimization of the scanner.
func BenchmarkAblationPQLeafStreaming(b *testing.B) { runExperiment(b, "abl-leafstream") }

// BenchmarkAblationLayoutShuffle measures ST and PQ on bulk-loaded
// versus shuffled index layouts (Section 6.2).
func BenchmarkAblationLayoutShuffle(b *testing.B) { runExperiment(b, "abl-layout") }

// Micro-benchmarks of the hot kernels, for regression tracking.

// BenchmarkKernelSortedScan measures raw sorted extraction from an
// R-tree (the PQ index adapter).
func BenchmarkKernelSortedScan(b *testing.B) {
	cfg := tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40}
	env, err := experiments.Prepare(experiments.Config{Tiger: cfg}, tiger.NY)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := env.RoadsTree.Scanner(rtree.StoreReader{Store: env.Store})
		n := 0
		for {
			_, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if int64(n) != env.RoadsTree.NumRecords() {
			b.Fatalf("scanned %d of %d", n, env.RoadsTree.NumRecords())
		}
	}
}

// Wall-clock benchmarks of the parallel in-memory engine — the
// non-simulated performance trajectory. Unlike everything above, these
// numbers are real time on the host, so they are the ones that should
// improve as the engine scales.

// BenchmarkParallelJoin measures the partition-parallel sweep on the
// 100k-record uniform workload against the serial sort-and-sweep
// baseline. Every sub-benchmark asserts the pair count matches the
// serial sweep exactly; on a multicore host the speedup at
// parallelism-4 is the headline scaling number (run with
// `go test -bench=ParallelJoin -cpu N` to pin GOMAXPROCS).
func BenchmarkParallelJoin(b *testing.B) {
	u := unijoin.NewRect(0, 0, 100_000, 100_000)
	ra := datagen.Uniform(1, 100_000, u, 40)
	rb := datagen.Uniform(2, 100_000, u, 40)
	o := parallel.Options{Universe: u}
	base, err := parallel.Serial(context.Background(), ra, rb, o)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := parallel.Serial(context.Background(), ra, rb, o)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Pairs != base.Pairs {
				b.Fatalf("serial pairs = %d, want %d", rep.Pairs, base.Pairs)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			po := o
			po.Workers = workers
			for i := 0; i < b.N; i++ {
				rep, err := parallel.Join(context.Background(), ra, rb, po)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Pairs != base.Pairs {
					b.Fatalf("parallelism-%d pairs = %d, want %d", workers, rep.Pairs, base.Pairs)
				}
			}
		})
	}
}

// BenchmarkParallelJoinTall is the array kernel's worst case: 20k ×
// 20k narrow records each spanning 40% of the universe's height, so a
// forward scan's candidates per record are most of the other input in
// the same stripe and only a fine stripe count keeps the join linear.
// The automatic count is about a thousand here; a count sized from
// the input size alone (about twenty) is 2.6× slower than the
// structure sweep this kernel replaced.
func BenchmarkParallelJoinTall(b *testing.B) {
	u := unijoin.NewRect(0, 0, 10_000, 10_000)
	ra := datagen.Tall(1, 20_000, u)
	rb := datagen.Tall(2, 20_000, u)
	o := parallel.Options{Universe: u}
	base, err := parallel.Serial(context.Background(), ra, rb, o)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallelism-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			po := o
			po.Workers = workers
			for i := 0; i < b.N; i++ {
				rep, err := parallel.Join(context.Background(), ra, rb, po)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Pairs != base.Pairs {
					b.Fatalf("pairs = %d, want %d", rep.Pairs, base.Pairs)
				}
			}
		})
	}
}

// BenchmarkParallelJoinEmitModes compares the three result-delivery
// modes on the parallel engine: counting only (no callback at all),
// the per-pair Emit callback, and the pooled EmitBatch fast path that
// amortizes the callback indirection over whole partition buffers.
func BenchmarkParallelJoinEmitModes(b *testing.B) {
	u := unijoin.NewRect(0, 0, 100_000, 100_000)
	ra := datagen.Uniform(1, 100_000, u, 40)
	rb := datagen.Uniform(2, 100_000, u, 40)
	base := parallel.Options{Universe: u, Workers: 2}
	b.Run("count-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Join(context.Background(), ra, rb, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("emit", func(b *testing.B) {
		b.ReportAllocs()
		o := base
		var n int64
		o.Emit = func(unijoin.Pair) { n++ }
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Join(context.Background(), ra, rb, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("emitbatch", func(b *testing.B) {
		b.ReportAllocs()
		o := base
		var n int64
		o.EmitBatch = func(ps []unijoin.Pair) { n += int64(len(ps)) }
		for i := 0; i < b.N; i++ {
			if _, err := parallel.Join(context.Background(), ra, rb, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelJoinClustered is BenchmarkParallelJoin on the
// TIGER-like clustered workload, where quantile stripe boundaries and
// partition oversubscription carry the load balance.
func BenchmarkParallelJoinClustered(b *testing.B) {
	u := unijoin.NewRect(0, 0, 100_000, 100_000)
	terr := datagen.NewTerrain(1997, u, 40)
	ra := datagen.Roads(terr, 1, 100_000, datagen.RoadParams{})
	rb := datagen.Hydro(terr, 2, 60_000, datagen.HydroParams{})
	o := parallel.Options{Universe: u}
	base, err := parallel.Serial(context.Background(), ra, rb, o)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			po := o
			po.Workers = workers
			for i := 0; i < b.N; i++ {
				rep, err := parallel.Join(context.Background(), ra, rb, po)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Pairs != base.Pairs {
					b.Fatalf("pairs = %d, want %d", rep.Pairs, base.Pairs)
				}
			}
		})
	}
}

// queryParallelInputs loads the data of the load benchmark's
// direct_count workload — TIGER-like NJ roads and hydrography, 103,610
// × 12,713 records at scale 0.25 — as two unindexed relations.
func queryParallelInputs(tb testing.TB, scale float64) (*unijoin.Workspace, *unijoin.Relation, *unijoin.Relation) {
	tb.Helper()
	recsRoads, recsHydro := tiger.Config{Scale: scale, Seed: 1997}.Generate(tiger.NJ)
	ws := unijoin.NewWorkspace()
	ws.SetUniverse(tiger.NJ.Region)
	roads, err := ws.AddNamedRelation("roads", recsRoads)
	if err != nil {
		tb.Fatal(err)
	}
	hydro, err := ws.AddNamedRelation("hydro", recsHydro)
	if err != nil {
		tb.Fatal(err)
	}
	return ws, roads, hydro
}

// countParallel runs q as the workload's query: count-only AlgParallel
// at parallelism 1.
func countParallel(tb testing.TB, q *unijoin.Query) *unijoin.Results {
	res, err := q.Algorithm(unijoin.AlgParallel).Parallelism(1).CountOnly().Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkQueryParallel times one served AlgParallel query in the
// three states a relation's prepared run can be in: cold (the first
// query ever: read, decode and sort both relations), warm (every
// later query on the same epochs: no disk, no sort), and after-append
// (the first query on a new epoch: one linear merge of the carried
// delta into the base run). Setup — loading, and the 256-record
// append — is outside the timer. EXPERIMENTS.md records the rows.
func BenchmarkQueryParallel(b *testing.B) {
	const scale = 0.25
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ws, roads, hydro := queryParallelInputs(b, scale)
			b.StartTimer()
			if res := countParallel(b, ws.Query(roads, hydro)); res.PrepareWall == 0 {
				b.Fatal("cold query found a prepared run")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ws, roads, hydro := queryParallelInputs(b, scale)
		countParallel(b, ws.Query(roads, hydro))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := countParallel(b, ws.Query(roads, hydro)); res.PrepareWall != 0 || res.IO.Total() != 0 {
				b.Fatalf("warm query prepared for %v and touched %d pages", res.PrepareWall, res.IO.Total())
			}
		}
	})
	b.Run("after-append", func(b *testing.B) {
		ws, roads, hydro := queryParallelInputs(b, scale)
		countParallel(b, ws.Query(roads, hydro))
		batch := datagen.Uniform(3, 256, tiger.NJ.Region, 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range batch {
				batch[j].ID = uint32(1<<24 + i*len(batch) + j)
			}
			if _, err := roads.Append(batch); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			countParallel(b, ws.Query(roads, hydro))
		}
	})
}

// TestWarmParallelQueryAllocations guards the engine's allocation
// profile on the served path. A warm count-only AlgParallel query
// allocates nothing per record: the inputs are the shared prepared
// runs, the distribution fragments come from the pool, one-fragment
// partitions are swept in place, and the array kernel keeps no
// structure. What is left is a fixed number of per-query slabs sized
// by the stripe count K, plus the slice header sync.Pool boxes for
// each fragment handed back — two per stripe. So at a fixed K the
// count must not move when the relations quadruple, and across K it
// must grow by a few per stripe and nothing else. Measured: 67
// allocations at K = 16, at 12k and at 46k records alike, and 178 at
// K = 64. The ceilings leave room for -race, whose sync.Pool drops a
// quarter of all Puts so that fragments are grown afresh (about 165
// and 500); one sweep structure per stripe side, which is what this
// engine used to build, would be thousands. A stripe shard's query —
// the same one under Query.Owned — is held to the same ceiling: its
// ownership test is the kernel's own, so it too counts in place and
// builds no pair buffer to filter afterwards. And so is a served PQ —
// AlgPQ counted on a catalog's workspace — which is the same engine
// under another name, dealt to its one worker a window at a time.
func TestWarmParallelQueryAllocations(t *testing.T) {
	third := tiger.NJ.Region.Width() / 3
	allocs := func(scale float64, k int, middleThird, servedPQ bool) float64 {
		ws, roads, hydro := queryParallelInputs(t, scale)
		if servedPQ {
			unijoin.NewCatalogOn(ws)
		}
		q := func() {
			query := ws.Query(roads, hydro).Partitions(k)
			if middleThird {
				query.Owned(tiger.NJ.Region.XLo+third, tiger.NJ.Region.XHi-third)
			}
			if !servedPQ {
				countParallel(t, query)
			} else if res, err := query.CountOnly().Run(context.Background()); err != nil {
				t.Fatal(err)
			} else if res.Parallel == nil {
				t.Fatal("the served PQ ran on the simulator")
			}
		}
		q() // builds the runs, fills the pool
		q()
		return testing.AllocsPerRun(10, q)
	}
	small16, large16 := allocs(0.025, 16, false, false), allocs(0.1, 16, false, false)
	large64, owned64, pq64 := allocs(0.1, 64, false, false), allocs(0.1, 64, true, false), allocs(0.1, 64, true, true)
	t.Logf("warm query: %.0f allocs at 10k+1.3k records and %.0f at 41k+5k with 16 partitions, %.0f with 64, %.0f with 64 under Owned, %.0f as a served PQ under Owned",
		small16, large16, large64, owned64, pq64)
	if large16 > 1.25*small16+16 {
		t.Fatalf("allocations grow with input size: %.0f at 12k records, %.0f at 46k", small16, large16)
	}
	for _, c := range []struct {
		what string
		k    int
		n    float64
	}{{"warm query", 16, large16}, {"warm query", 64, large64}, {"warm query under Owned", 64, owned64},
		{"warm served PQ under Owned", 64, pq64}} {
		if limit := float64(40 + 10*c.k); c.n > limit {
			t.Fatalf("%s made %.0f allocations at %d partitions, more than %.0f (40 + 10 per partition)", c.what, c.n, c.k, limit)
		}
	}
}

// BenchmarkServedJoin times the default served join — AlgPQ streaming
// its pairs through EmitBatch under the shard's Owned interval — on the
// two engines that can run it: the simulated disk a NewWorkspace() gives
// every caller (PQ over two packed R-trees, the paper's algorithm as the
// paper measures it) and the resident prepared runs of a catalog's
// workspace. Two data sets, both the load benchmark's: NJ × 0.25
// (103,610 roads × 12,713 hydro, clustered) on one server, and uniform
// 16 k × 12 k cut into the benchmark's three stripes, one op being the
// three shards' joins one after the other. Four selectivities: no
// window, and square windows of 0.5 %, 5 % and 30 % of the region's
// area centred on a record. The selective rows are why a windowed resident
// join is cut to the window's y-slab first: a tree prunes subtrees, and
// a run filtered whole would lose to it. The two rows named "routed"
// are the three-stripe windowed join as a router runs it: on the
// stripes the window reaches, which own all of it. Every row checks its
// count against the other engine's. EXPERIMENTS.md records the rows.
func BenchmarkServedJoin(b *testing.B) {
	roads, hydro := tiger.Config{Scale: 0.25, Seed: 1997}.Generate(tiger.NJ)
	u := unijoin.NewRect(0, 0, 1000, 1000)
	type shardState struct {
		ws          *unijoin.Workspace
		left, right *unijoin.Relation
		lo, hi      unijoin.Coord
	}
	counts := map[string]int64{} // by data set and window, across engines
	for _, d := range []struct {
		name        string
		region      unijoin.Rect
		left, right []unijoin.Record
		shards      int
	}{
		{"NJ", tiger.NJ.Region, roads, hydro, 1},
		{"uniform-3-shards", u, datagen.Uniform(1997, 16_000, u, 20), datagen.Uniform(1998, 12_000, u, 20), 3},
	} {
		plan := shard.NewPlan(d.region, d.shards, d.left, d.right)
		centre := d.right[len(d.right)/2].Rect.Center()
		for _, engine := range []string{"simulated", "resident"} {
			fleet := make([]shardState, plan.Shards())
			for i := range fleet {
				iv := plan.Interval(i)
				ws := unijoin.NewWorkspace()
				ws.SetUniverse(d.region)
				if engine == "resident" {
					unijoin.NewCatalogOn(ws)
				}
				load := func(recs []unijoin.Record) *unijoin.Relation {
					rel, err := ws.AddRelation(iv.Slice(recs))
					if err == nil {
						err = rel.BuildIndex()
					}
					if err != nil {
						b.Fatal(err)
					}
					return rel
				}
				fleet[i] = shardState{ws: ws, left: load(d.left), right: load(d.right), lo: iv.Lo, hi: iv.Hi}
			}
			for _, share := range []float64{0, 0.005, 0.05, 0.30} {
				window := "unwindowed"
				if share > 0 {
					window = fmt.Sprintf("window-%g%%", 100*share)
				}
				var win unijoin.Rect
				if share > 0 {
					side := unijoin.Coord(math.Sqrt(share))
					hw, hh := side*d.region.Width()/2, side*d.region.Height()/2
					win = unijoin.NewRect(centre.X-hw, centre.Y-hh, centre.X+hw, centre.Y+hh)
				}
				// asked is who runs the op: every shard, or — the rows
				// named "routed" — the shards a router asks, those whose
				// interval the window reaches. The count is the same.
				run := func(name string, asked []shardState) {
					b.Run(name, func(b *testing.B) {
						op := func() (pairs int64) {
							for _, s := range asked {
								q := s.ws.Query(s.left, s.right).Owned(s.lo, s.hi).
									EmitBatch(func(ps []unijoin.Pair) { pairs += int64(len(ps)) })
								if share > 0 {
									q.Window(win)
								}
								res, err := q.Run(context.Background())
								if err != nil {
									b.Fatal(err)
								}
								if (res.Parallel != nil) != (engine == "resident") {
									b.Fatalf("engine report %v on the %s workspace", res.Parallel, engine)
								}
							}
							return pairs
						}
						want, seen := counts[d.name+window]
						if got := op(); !seen { // also warms the prepared runs
							counts[d.name+window], want = got, got
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if got := op(); got != want {
								b.Fatalf("%d pairs, the other engine or the last run found %d", got, want)
							}
						}
						b.ReportMetric(float64(len(asked)), "legs/op")
					})
				}
				run(d.name+"/"+engine+"/"+window, fleet)
				if engine == "resident" && len(fleet) > 1 && share > 0 && share < 0.3 {
					var touched []shardState
					for _, s := range fleet {
						if (shard.Interval{Lo: s.lo, Hi: s.hi}).Loads(win) {
							touched = append(touched, s)
						}
					}
					run(d.name+"/"+engine+"/"+window+"/routed", touched)
				}
			}
		}
	}
}

// BenchmarkKernelRTreeBuild measures Hilbert bulk loading.
func BenchmarkKernelRTreeBuild(b *testing.B) {
	cfg := tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40}
	roads, _ := cfg.Generate(tiger.NY)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := unijoin.NewWorkspace()
		ws.SetUniverse(tiger.NY.Region)
		rel, err := ws.AddRelation(roads)
		if err != nil {
			b.Fatal(err)
		}
		if err := rel.BuildIndex(); err != nil {
			b.Fatal(err)
		}
	}
}
