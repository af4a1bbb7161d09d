package unijoin

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"unijoin/internal/jointest"
)

// TestConcurrentQueriesCancelSharedWorkspace runs mixed-algorithm
// queries concurrently on ONE workspace — the contract the query
// service relies on — with one of them canceled mid-stream. Run under
// -race (CI does) this checks the simulated disk's and the sweep
// kernels' shared-state discipline; without -race it still checks
// that concurrent queries neither corrupt each other's results nor
// leak cancellation into their neighbors.
func TestConcurrentQueriesCancelSharedWorkspace(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	want := jointest.Join(ra, rb, nil).Len()

	algs := []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM, AlgST, AlgBFRJ, AlgParallel}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(algs)+4)

	// Full joins, every algorithm twice, all at once.
	for round := 0; round < 2; round++ {
		for _, alg := range algs {
			wg.Add(1)
			go func(alg Algorithm) {
				defer wg.Done()
				res, err := ws.Query(a, b).Algorithm(alg).CountOnly().Run(context.Background())
				if err == nil && res.Count() != want {
					err = fmt.Errorf("%v: got %d pairs, want %d", alg, res.Count(), want)
				}
				errs <- err
			}(alg)
		}
	}
	// Streaming queries canceled mid-stream: the first batch pulls the
	// plug, and the query must come back with ErrCanceled while the
	// concurrent full joins above stay unaffected. These run on a
	// bigger relation pair (same workspace) so the join always spans
	// several batches and cancellation poll windows.
	u := NewRect(0, 0, 1000, 1000)
	bigA, err := ws.AddNamedRelation("bigA", demoRecords(11, 20_000, u))
	if err != nil {
		t.Fatal(err)
	}
	bigB, err := ws.AddNamedRelation("bigB", demoRecords(12, 20_000, u))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgPQ, AlgSSSJ} {
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := ws.Query(bigA, bigB).Algorithm(alg).
				EmitBatch(func([]Pair) { cancel() }).
				Run(ctx)
			if err == nil {
				err = fmt.Errorf("%v: canceled mid-stream yet finished cleanly", alg)
			} else if !errors.Is(err, ErrCanceled) {
				err = fmt.Errorf("%v: want ErrCanceled, got %w", alg, err)
			} else {
				err = nil
			}
			errs <- err
		}(alg)
	}
	// Window queries riding alongside.
	for _, rel := range []*Relation{a, b} {
		wg.Add(1)
		go func(rel *Relation) {
			defer wg.Done()
			n, err := rel.WindowQuery(context.Background(), NewRect(0, 0, 500, 500), nil)
			if err == nil && n == 0 {
				err = errors.New("window query found nothing")
			}
			errs <- err
		}(rel)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
