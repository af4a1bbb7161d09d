// Command sjjoin joins two record files produced by sjgen and reports
// the result cardinality and the simulated cost on the paper's three
// machines.
//
// Usage:
//
//	sjjoin -a ny.roads.bin -b ny.hydro.bin -alg PQ [-index a,b] [-out pairs.bin]
//	       [-window x1,y1,x2,y2] [-timeout 30s] [-workers N]
//
// Algorithms: PQ (default), SSSJ, PBSM, ST, auto, parallel. ST
// requires "-index a,b"; parallel is the multicore in-memory engine
// (-workers sets its worker count) and reports wall-clock time rather
// than meaningful simulated I/O. With -out, the resulting ID pairs
// are written as 8-byte little-endian records.
//
// The join runs under a context: -timeout bounds it, and Ctrl-C
// (SIGINT/SIGTERM) cancels it mid-run — a canceled join exits with
// status 2 after printing how it was interrupted. -window restricts
// the join to pairs intersecting the given rectangle.
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
	"time"

	"unijoin"
	"unijoin/internal/geom"
)

func main() {
	var (
		aPath   = flag.String("a", "", "left input file (20-byte MBR records)")
		bPath   = flag.String("b", "", "right input file")
		alg     = flag.String("alg", "PQ", "algorithm: PQ SSSJ PBSM ST auto parallel")
		index   = flag.String("index", "", "which sides to index: a, b, or a,b")
		out     = flag.String("out", "", "optional output file for result ID pairs")
		workers = flag.Int("workers", 0, "worker count for -alg parallel (default GOMAXPROCS)")
		window  = flag.String("window", "", "restrict the join to this rectangle: x1,y1,x2,y2")
		timeout = flag.Duration("timeout", 0, "abort the join after this long (0 = no limit)")
	)
	flag.Parse()
	if *aPath == "" || *bPath == "" {
		fail(fmt.Errorf("both -a and -b are required"))
	}

	// The context every phase of the join runs under: canceled by
	// Ctrl-C, bounded by -timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	recsA, err := unijoin.ReadRecordFile(*aPath)
	if err != nil {
		fail(err)
	}
	recsB, err := unijoin.ReadRecordFile(*bPath)
	if err != nil {
		fail(err)
	}

	ws := unijoin.NewWorkspace()
	a, err := ws.AddNamedRelation(*aPath, recsA)
	if err != nil {
		fail(err)
	}
	b, err := ws.AddNamedRelation(*bPath, recsB)
	if err != nil {
		fail(err)
	}
	for _, side := range strings.Split(*index, ",") {
		switch strings.TrimSpace(side) {
		case "a":
			err = a.BuildIndex()
		case "b":
			err = b.BuildIndex()
		case "":
		default:
			err = fmt.Errorf("unknown -index side %q", side)
		}
		if err != nil {
			fail(err)
		}
	}

	algorithm, err := unijoin.ParseAlgorithm(*alg)
	if err != nil {
		fail(err)
	}

	// Counting only unless -out asks for the pairs; either way the
	// query never buffers the result set in memory.
	q := ws.Query(a, b).
		Algorithm(algorithm).
		Parallelism(*workers).
		CountOnly()
	if *window != "" {
		r, err := unijoin.ParseRect(*window)
		if err != nil {
			fail(err)
		}
		q.Window(r)
	}

	var outFile *os.File
	if *out != "" {
		outFile, err = os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer outFile.Close()
		// Batched writes: one encode loop per batch instead of one
		// callback per pair.
		buf := make([]byte, 0, 1<<16)
		q.EmitBatch(func(batch []unijoin.Pair) {
			buf = buf[:0]
			var rec [geom.PairSize]byte
			for _, p := range batch {
				geom.EncodePair(rec[:], p)
				buf = append(buf, rec[:]...)
			}
			if _, err := outFile.Write(buf); err != nil {
				fail(err)
			}
		})
	}

	start := time.Now()
	res, err := q.Run(ctx)
	if errors.Is(err, unijoin.ErrCanceled) {
		why := "interrupted"
		if errors.Is(err, context.DeadlineExceeded) {
			why = fmt.Sprintf("timed out after %v", *timeout)
		}
		fmt.Fprintf(os.Stderr, "sjjoin: join %s (%v elapsed)\n", why, time.Since(start).Round(time.Millisecond))
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("algorithm:       %s\n", algorithm)
	fmt.Printf("inputs:          %d x %d records\n", a.Pin().Len(), b.Pin().Len())
	fmt.Printf("result pairs:    %d\n", res.Count())
	fmt.Printf("page accesses:   %d (%d seq reads, %d rand reads, %d writes)\n",
		res.IO.Total(), res.IO.SeqReads, res.IO.RandReads, res.IO.Writes())
	if res.PageRequests > 0 {
		fmt.Printf("index requests:  %d\n", res.PageRequests)
	}
	if res.Decision != nil {
		fmt.Printf("plan:            %s\n", *res.Decision)
	}
	fmt.Printf("host cpu:        %v\n", res.HostCPU)
	for _, m := range unijoin.Machines {
		fmt.Printf("%-28s cpu %7.2fs  io %7.2fs  total %7.2fs\n",
			m.Name+":", res.CPUTime(m).Seconds(),
			res.ObservedIOTime(m).Seconds(), res.ObservedTotal(m).Seconds())
	}
	if outFile != nil {
		fmt.Printf("pairs written:   %s\n", *out)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sjjoin:", err)
	os.Exit(1)
}
