// Command benchmark is the repository's load benchmark: it builds
// cmd/sjserved and cmd/sjrouter from the checkout, generates every
// input from -seed, drives the real processes over loopback with the
// public client package, checks every answer against an independent
// reference, and prints every metric by name and unit. See README.md.
//
// Usage (from this directory; it is a module of its own):
//
//	go run . [-seed n] [-rounds n] [-seconds s] [-workload name] [-traced] [-json out.json]
//	go run . -compare old.json new.json
//	go run . -selfcheck
//
// The acceptance driver runs it through run.sh as
// --workload <name> --seed <n> --seconds <s> --trace <0|1>; whenever
// one workload is selected, the last line of standard output is the
// driver's result object.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"unijoin/client"
	"unijoin/internal/geom"
)

// config is the command line.
type config struct {
	Seed     int64
	Rounds   int
	Seconds  float64 // measured seconds per workload, split over the rounds
	Workload string  // "" = all four
	Traced   bool
	JSONPath string
}

// env is what the rounds of one run share: the built programs, the
// generated inputs with their reference answers, and the span log.
type env struct {
	cfg     config
	root    string // repository root
	workDir string // .bench_build/work/run-<pid>, removed when the run ends
	bins    binaries
	spans   *spanLog
	kernel  *boxKernel

	tiger, uniform *dataset
	batches        [][]geom.Record     // appends of routed_ingest
	appendBodies   [][]client.RecordIn // the same, as request bodies
	prefix         *prefixTable        // reference counts per append prefix
}

func main() {
	var cfg config
	var trace int
	var compare, selfcheck bool
	flag.Int64Var(&cfg.Seed, "seed", 1997, "seed every generated input derives from")
	flag.IntVar(&cfg.Rounds, "rounds", 3, "measured rounds per workload, interleaved across workloads; the best round is reported")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "measured seconds per workload, split evenly over the rounds")
	flag.StringVar(&cfg.Workload, "workload", "", "run only this workload (default: all)")
	flag.StringVar(&cfg.Workload, "only", "", "alias of -workload")
	flag.BoolVar(&cfg.Traced, "traced", false, "also run the layer probes and one traced round per workload, print the per-layer metrics and write the span file")
	flag.IntVar(&trace, "trace", 0, "driver spelling of -traced: 1 = on")
	flag.StringVar(&cfg.JSONPath, "json", "", "write the result set to this file (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare old.json new.json; exits 1 when a metric got worse by more than its bound")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the set twice on this code and fail unless every end-to-end metric agrees within its bound")
	flag.Parse()
	cfg.Traced = cfg.Traced || trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case compare:
		err = compareFiles(os.Stdout, flag.Args())
	case selfcheck:
		err = runSelfcheck(ctx, cfg)
	default:
		_, err = runAndReport(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAndReport runs one set and prints it.
func runAndReport(ctx context.Context, cfg config) (*resultSet, error) {
	selected := workloads
	if cfg.Workload != "" {
		w, ok := workloadByName(cfg.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
		}
		selected = []*workload{w}
	}
	if cfg.Rounds < 1 || cfg.Seconds <= 0 {
		return nil, fmt.Errorf("-rounds and -seconds must be positive")
	}
	if n := runtime.NumCPU(); n < loadClients {
		fmt.Printf("warning: nproc = %d is below the %d client goroutines; the generator will contend with the fleet\n", n, loadClients)
	}

	e, err := newEnv(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.workDir)
	set, err := e.runSet(ctx, selected)
	if err != nil {
		return nil, err
	}
	set.print(os.Stdout)
	if cfg.Traced {
		path := filepath.Join(e.root, "benchmark", "out", fmt.Sprintf("trace-%d.json", cfg.Seed))
		if err := e.spans.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("\nspans written to %s\n", path)
	}
	if cfg.JSONPath != "" {
		if err := set.writeFile(cfg.JSONPath); err != nil {
			return nil, err
		}
	}
	if len(selected) == 1 {
		if err := set.printDriverLine(os.Stdout, selected[0].Name, cfg.Traced); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// newEnv finds the repository, builds the programs and creates the
// run's working directory. Everything the benchmark writes lives
// under <root>/.bench_build or benchmark/out.
func newEnv(ctx context.Context, cfg config) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, root: root, spans: newSpanLog(), kernel: newBoxKernel()}
	build := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(build, "bin")
	e.bins = binaries{served: filepath.Join(binDir, "sjserved"), router: filepath.Join(binDir, "sjrouter")}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/sjserved", "./cmd/sjrouter")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/sjserved ./cmd/sjrouter: %w", err)
	}
	fmt.Printf("built sjserved and sjrouter in %.1f s; nproc = %d, %s\n",
		time.Since(start).Seconds(), runtime.NumCPU(), runtime.Version())
	e.workDir = filepath.Join(build, "work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// findRoot walks up from the working directory to the repository
// root: the first directory holding cmd/sjserved.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sjserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the unijoin repository: no cmd/sjserved above the working directory")
		}
		dir = parent
	}
}

// tigerData returns the TIGER-like dataset, generating it on first use.
func (e *env) tigerData() (*dataset, error) {
	if e.tiger == nil {
		start := time.Now()
		d, err := tigerDataset(e.workDir, e.cfg.Seed)
		if err != nil {
			return nil, err
		}
		e.tiger = d
		fmt.Printf("generated %s %d × %s %d, reference %d pairs, stripes %v (%.1f s)\n",
			d.Left.Name, len(d.Left.Recs), d.Right.Name, len(d.Right.Recs), d.Join.Pairs, d.Stripes, time.Since(start).Seconds())
	}
	return e.tiger, nil
}

// uniformData returns the uniform dataset with its append batches and
// prefix reference table, generating them on first use. The batches
// cover the longest round plus warm-up, with slack.
func (e *env) uniformData() (*dataset, error) {
	if e.uniform == nil {
		start := time.Now()
		d, err := uniformDataset(e.workDir, e.cfg.Seed)
		if err != nil {
			return nil, err
		}
		roundSeconds := e.cfg.Seconds / float64(e.cfg.Rounds)
		n := max(int((roundSeconds+10)*appendPerSec), 3*probeReps)
		e.batches = appendBatches(d, e.cfg.Seed, n)
		e.appendBodies = appendBodies(e.batches)
		e.prefix = newPrefixTable(d.Left.Recs, e.batches, d.Right.Recs, d.Bounds)
		e.uniform = d
		fmt.Printf("generated %s %d × %s %d, reference %d pairs, stripes %v, %d append batches of %d (%.1f s)\n",
			d.Left.Name, len(d.Left.Recs), d.Right.Name, len(d.Right.Recs), d.Join.Pairs, d.Stripes, n, appendBatch, time.Since(start).Seconds())
	}
	return e.uniform, nil
}

// runSet runs the selected workloads: the layer probes first when
// traced, then cfg.Rounds untraced rounds interleaved across the
// workloads (W1 W2 W3 W4, W1 …) so slow drift of a shared box hits
// every workload alike, then one traced round per workload at half a
// round's length. End-to-end metrics come from the untraced rounds
// only; the traced round feeds the per-layer metrics.
func (e *env) runSet(ctx context.Context, selected []*workload) (*resultSet, error) {
	set := newResultSet(e.cfg)
	var probed map[string]float64
	if e.cfg.Traced {
		tig, err := e.tigerData()
		if err != nil {
			return nil, err
		}
		uni, err := e.uniformData()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if probed, err = runProbes(ctx, e.cfg.Seed, e.spans, tig, uni, e.batches); err != nil {
			return nil, err
		}
		fmt.Printf("layer probes done (%.1f s)\n", time.Since(start).Seconds())
	}

	per := time.Duration(e.cfg.Seconds / float64(e.cfg.Rounds) * float64(time.Second))
	seq := 0
	rounds := make(map[string][]*roundResult)
	for r := 1; r <= e.cfg.Rounds; r++ {
		for _, w := range selected {
			seq++
			res, err := e.runRound(ctx, w, seq, per, false)
			if err != nil {
				return nil, err
			}
			rounds[w.Name] = append(rounds[w.Name], res)
			res.printLine(os.Stdout, r)
		}
	}
	for _, w := range selected {
		wr := set.add(w, rounds[w.Name])
		if !e.cfg.Traced {
			continue
		}
		seq++
		tr, err := e.runRound(ctx, w, seq, per/2, true)
		if err != nil {
			return nil, err
		}
		tr.printLine(os.Stdout, 0)
		for _, t := range tr.traces {
			t.record(e.spans, w.Name)
		}
		wr.addPerLayer(probed, w.endpoint, tr, rounds[w.Name])
	}
	if e.cfg.Traced {
		set.SelfTimes = e.spans.selfTimes()
	}
	return set, nil
}
