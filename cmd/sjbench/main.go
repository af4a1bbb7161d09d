// Command sjbench regenerates the tables and figures of the paper's
// evaluation on the synthetic TIGER-like data sets and the simulated
// machines of Table 1.
//
// Usage:
//
//	sjbench [-exp id[,id...]] [-scale f] [-sets NJ,NY,...] [-seed n]
//	        [-parallel N] [-timeout d] [-window x1,y1,x2,y2] [-json]
//
// With no -exp flag, every experiment runs in DESIGN.md order:
// table1 table2 table3 table4 fig2 fig3 sel and the ablations. The
// default scale (0.01) shrinks the paper's data sets 100x, with memory
// budgets scaled to match, so the relative shapes of all results are
// preserved while a full run completes in minutes.
//
// With -parallel N, only the wall-clock experiment runs: the
// multicore in-memory engine (internal/parallel) is measured in real
// time, scaling the worker count from 1 up to N against its own
// one-worker run.
// This is the non-simulated benchmark path; at the default scale the
// uniform workload is the 100k-record set the benchmark trajectory
// tracks. The table breaks the wall time into the chunked parallel
// distribution prefix ("Part ms") and the sweep phase, and reports
// the two-layer classification: the fraction of records local to one
// stripe and the fraction of pairs emitted without the
// reference-point test. -window restricts the wall-clock joins to the
// given rectangle (it has no effect on the paper-reproduction
// experiments, whose tables are defined over the full data sets).
//
// Serving latency — transports, direct vs routed, trace overhead — is
// not measured here: benchmark/ drives the real binaries for that.
//
// With -json, every measured run is emitted as one NDJSON object
// (keys derived from the table's column headers, numeric cells as
// JSON numbers) instead of aligned tables — the machine-readable form
// a benchmark trajectory can append to and diff across commits.
//
// Every experiment runs under a context: -timeout bounds the whole
// invocation and Ctrl-C cancels it, so a runaway configuration can be
// interrupted cleanly (exit status 2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"unijoin"
	"unijoin/internal/experiments"
	"unijoin/internal/tiger"
)

func main() {
	var (
		exp      = flag.String("exp", "", "comma-separated experiment ids (default: all); known: "+strings.Join(experiments.IDs, " "))
		scale    = flag.Float64("scale", 0.01, "data scale relative to the paper's Table 2 sizes, in (0,1]")
		sets     = flag.String("sets", "", "comma-separated data set names (default: all six)")
		seed     = flag.Int64("seed", 1997, "generation seed")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Int("parallel", 0, "run only the wall-clock parallel engine experiment, scaling to N workers")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		window   = flag.String("window", "", "restrict the wall-clock joins to this rectangle: x1,y1,x2,y2")
		jsonOut  = flag.Bool("json", false, "emit results as NDJSON, one object per measured run, instead of tables")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs {
			fmt.Println(id)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{
		Tiger: tiger.Config{Scale: *scale, Seed: *seed, Clusters: 40},
	}
	if *sets != "" {
		cfg.Sets = strings.Split(*sets, ",")
	}
	if *window != "" {
		r, err := unijoin.ParseRect(*window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sjbench: %v\n", err)
			os.Exit(1)
		}
		cfg.Window = &r
	}
	// print renders one result table in the selected output mode.
	print := func(id string, tab *experiments.Table) {
		if *jsonOut {
			if err := tab.FprintJSONL(os.Stdout); err != nil {
				exitErr(id, err)
			}
			return
		}
		tab.Fprint(os.Stdout)
	}

	if *parallel > 0 {
		tab, err := experiments.Wallclock(ctx, cfg, *parallel)
		if err != nil {
			exitErr("wallclock", err)
		}
		print("wallclock", tab)
		return
	}

	ids := experiments.IDs
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tab, err := experiments.RunTable(ctx, id, cfg)
		if err != nil {
			exitErr(id, err)
		}
		print(id, tab)
	}
}

// exitErr distinguishes cancellation (exit 2) from real failures.
func exitErr(id string, err error) {
	if errors.Is(err, unijoin.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "sjbench: %s: interrupted: %v\n", id, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "sjbench: %s: %v\n", id, err)
	os.Exit(1)
}
