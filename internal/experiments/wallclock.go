package experiments

import (
	"context"
	"fmt"
	"runtime"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/parallel"
)

// wallclockRepeats is how many times each configuration is run; the
// fastest run is reported, the usual way to suppress scheduler noise
// in wall-clock microbenchmarks.
const wallclockRepeats = 3

// wallclockWorkloads builds the in-memory record sets the wall-clock
// experiment joins, sized by the configured scale: at sjbench's
// default 0.01 the uniform workload is the 100k-record set the
// benchmark trajectory tracks, and the TIGER-like workload matches the
// clustered shape of the paper's data.
func wallclockWorkloads(cfg Config) []struct {
	Name     string
	Universe geom.Rect
	A, B     []geom.Record
} {
	n := int(10_000_000 * cfg.Tiger.Scale)
	if n < 2000 {
		n = 2000
	}
	u := geom.NewRect(0, 0, 100_000, 100_000)
	terr := datagen.NewTerrain(cfg.Tiger.Seed, u, cfg.Tiger.Clusters)
	return []struct {
		Name     string
		Universe geom.Rect
		A, B     []geom.Record
	}{
		{
			Name:     "uniform",
			Universe: u,
			A:        datagen.Uniform(cfg.Tiger.Seed, n, u, 40),
			B:        datagen.Uniform(cfg.Tiger.Seed+1, n, u, 40),
		},
		{
			Name:     "tiger-like",
			Universe: u,
			A:        datagen.Roads(terr, cfg.Tiger.Seed+2, n, datagen.RoadParams{}),
			B:        datagen.Hydro(terr, cfg.Tiger.Seed+3, n*3/5, datagen.HydroParams{}),
		},
	}
}

// bestOf runs one join configuration wallclockRepeats times and keeps
// the fastest report, the same selection policy for the serial
// baseline and every parallel row.
func bestOf(ctx context.Context, join func(ctx context.Context, a, b []geom.Record, o parallel.Options) (parallel.Report, error),
	a, b []geom.Record, o parallel.Options) (parallel.Report, error) {
	var best parallel.Report
	for i := 0; i < wallclockRepeats; i++ {
		rep, err := join(ctx, a, b, o)
		if err != nil {
			return parallel.Report{}, err
		}
		if i == 0 || rep.Wall < best.Wall {
			best = rep
		}
	}
	return best, nil
}

// Wallclock measures the parallel in-memory engine in real time — the
// benchmark path that is not simulated: a serial sort-and-sweep
// baseline, then the partition-parallel engine at 1, 2, 4, ...
// workers up to maxWorkers, on a uniform and a TIGER-like workload.
// Two speedup columns keep two questions apart: "vs serial" compares
// with the structure sweep of the serial baseline, which the array
// kernel beats at one worker already, so it mixes kernel and
// parallelism; "vs 1 worker" compares the engine with itself and is
// the scaling number. Pair counts are cross-checked against the
// serial baseline on every row.
func Wallclock(ctx context.Context, cfg Config, maxWorkers int) (*Table, error) {
	if maxWorkers < 1 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID: "wallclock",
		Title: fmt.Sprintf("Parallel in-memory engine, wall-clock (GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		Header: []string{"Workload", "Records", "Mode", "Workers", "Parts",
			"Wall ms", "Part ms", "Sweep ms", "Pairs", "Repl",
			"Local frac", "NoTest frac", "vs serial", "vs 1 worker"},
	}
	for _, wl := range wallclockWorkloads(cfg) {
		o := parallel.Options{Universe: wl.Universe, Window: cfg.Window}
		serial, err := bestOf(ctx, parallel.Serial, wl.A, wl.B, o)
		if err != nil {
			return nil, err
		}
		recs := fmt.Sprintf("%d+%d", len(wl.A), len(wl.B))
		t.AddRow(wl.Name, recs, "serial", "1", "1",
			ms(serial.Wall), ms(serial.PartitionWall), ms(serial.SweepWall),
			fmt.Sprintf("%d", serial.Pairs), "1.000",
			fmt.Sprintf("%.3f", serial.LocalFraction()),
			fmt.Sprintf("%.3f", serial.NoTestFraction()),
			"1.00", "-")
		var one parallel.Report // the ladder starts at one worker
		for i, workers := range workerLadder(maxWorkers) {
			o.Workers = workers
			rep, err := bestOf(ctx, parallel.Join, wl.A, wl.B, o)
			if err != nil {
				return nil, err
			}
			if rep.Pairs != serial.Pairs {
				return nil, fmt.Errorf("experiments: wallclock %s: parallel %d pairs, serial %d",
					wl.Name, rep.Pairs, serial.Pairs)
			}
			if i == 0 {
				one = rep
			}
			t.AddRow(wl.Name, recs, "parallel",
				fmt.Sprintf("%d", rep.Workers),
				fmt.Sprintf("%d", rep.Partitions),
				ms(rep.Wall), ms(rep.PartitionWall), ms(rep.SweepWall),
				fmt.Sprintf("%d", rep.Pairs),
				fmt.Sprintf("%.3f", rep.Replication),
				fmt.Sprintf("%.3f", rep.LocalFraction()),
				fmt.Sprintf("%.3f", rep.NoTestFraction()),
				fmt.Sprintf("%.2f", rep.Speedup(serial)),
				fmt.Sprintf("%.2f", rep.Speedup(one)))
		}
	}
	t.AddNote("best of %d runs on this host; vs serial = serial wall / this wall (kernel and parallelism together: the array kernel beats the serial structure sweep at one worker)", wallclockRepeats)
	t.AddNote("vs 1 worker = the engine's own one-worker wall / this wall — the scaling number")
	t.AddNote("Parts is the stripe count the engine chose from the input sizes and mean extents")
	t.AddNote("Part ms is the chunked parallel distribution prefix (filter + two-layer classify)")
	t.AddNote("Local/NoTest frac: stripe-local records and pairs emitted without the reference-point test")
	t.AddNote("pair counts cross-checked against the serial sweep on every row")
	return t, nil
}

// workerLadder returns the worker counts to measure: powers of two up
// to max, always ending at max itself.
func workerLadder(max int) []int {
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}
