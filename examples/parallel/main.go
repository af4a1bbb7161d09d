// Parallel: the two performance paths of the library side by side on
// one TIGER-like workload — the paper's simulated-I/O accounting
// (SSSJ priced on the Table 1 machines) and the multicore in-memory
// engine measured in wall-clock time on the real host. Both run
// through the same Query API; only the Algorithm differs.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"unijoin"
	"unijoin/internal/datagen"
)

func main() {
	ctx := context.Background()

	// A clustered, TIGER-like workload: roads and hydro features
	// sampling the same population terrain, as in the paper's data.
	universe := unijoin.NewRect(0, 0, 100_000, 100_000)
	terrain := datagen.NewTerrain(1997, universe, 30)
	roads := datagen.Roads(terrain, 1, 60_000, datagen.RoadParams{})
	hydro := datagen.Hydro(terrain, 2, 30_000, datagen.HydroParams{})

	ws := unijoin.NewWorkspace()
	ws.SetUniverse(universe)
	a, err := ws.AddNamedRelation("roads", roads)
	if err != nil {
		log.Fatal(err)
	}
	b, err := ws.AddNamedRelation("hydro", hydro)
	if err != nil {
		log.Fatal(err)
	}

	// Path 1: the paper's apparatus. The join runs over the simulated
	// disk and is priced in simulated seconds on the Table 1 machines.
	serial, err := ws.Query(a, b).Algorithm(unijoin.AlgSSSJ).CountOnly().Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated-I/O path (SSSJ): %d pairs\n", serial.Count())
	for _, m := range unijoin.Machines {
		fmt.Printf("  %-26s total %v (simulated)\n", m.Name+":", serial.ObservedTotal(m).Round(1000))
	}

	// Path 2: the wall-clock path. The same relations are joined by
	// the partition-parallel in-memory engine; time here is real time
	// on this host's cores.
	fmt.Printf("\nwall-clock path (parallel engine, GOMAXPROCS=%d):\n", runtime.GOMAXPROCS(0))
	// Powers of two up to GOMAXPROCS, always ending at GOMAXPROCS
	// itself (which a doubling loop would skip on e.g. a 6-core host).
	var ladder []int
	for w := 1; w < runtime.GOMAXPROCS(0); w *= 2 {
		ladder = append(ladder, w)
	}
	ladder = append(ladder, runtime.GOMAXPROCS(0))
	for _, workers := range ladder {
		res, err := ws.Query(a, b).
			Algorithm(unijoin.AlgParallel).
			Parallelism(workers).
			CountOnly().
			Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if res.Count() != serial.Count() {
			log.Fatalf("parallel join disagrees with SSSJ: %d vs %d pairs", res.Count(), serial.Count())
		}
		p := res.Parallel
		fmt.Printf("  workers=%-2d partitions=%-3d wall %8v  (partition %v, sweep %v, replication %.3f)\n",
			p.Workers, p.Partitions, p.Wall.Round(1000), p.PartitionWall.Round(1000),
			p.SweepWall.Round(1000), p.Replication)
		fmt.Printf("    two-layer: %d local / %d boundary records; %d comparisons, %.2f per pair\n",
			p.LocalRecords, p.BoundaryRecords, p.Comparisons, float64(p.Comparisons)/float64(max(p.Pairs, 1)))
		for i, w := range p.PerWorker {
			fmt.Printf("    worker %d: %3d partitions, %7d records, %7d pairs, busy %v\n",
				i, w.Partitions, w.Records, w.Pairs, w.Busy.Round(1000))
		}
	}
	fmt.Println("\nboth paths agree on the result; only the cost models differ.")
}
