package server

import (
	"context"
	"flag"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/shard"
)

// soakBatches is how many append batches TestIngestSoak sends. The
// default keeps the test inside the ordinary run; the nightly workflow
// passes 2000.
var soakBatches = flag.Int("soak-batches", 80, "append batches TestIngestSoak sends")

// TestIngestSoak holds an append storm to the resources it may keep:
// a stripe server over two indexed relations takes batch after batch
// while count-only parallel joins, PQ joins and window queries run
// against it, and afterwards
//
//   - the heap in use is bounded by the data — three times the final
//     record bytes for everything resident (logs, prepared runs, delta
//     runs), plus the packed trees and the released
//     sort extents the store keeps for reuse, plus a fixed allowance
//     for the process itself;
//   - the store's live pages are the two logs and one packed tree per
//     bulk load, nothing per append (the page-count leak test's
//     formula, end to end);
//   - the goroutine count is back where it started.
func TestIngestSoak(t *testing.T) {
	const batchSize = 256
	baseline := runtime.NumGoroutine()
	u := unijoin.NewRect(0, 0, 1000, 1000)
	cat := unijoin.NewCatalog()
	cat.Workspace().SetUniverse(u)
	store := cat.Workspace().Store()
	names := []string{"a", "b"}
	next := map[string]int{"a": 6000, "b": 4500}
	treePages := 0
	for i, name := range names {
		rel, err := cat.Load(name, datagen.Uniform(int64(i+1), next[name], u, 12), true)
		if err != nil {
			t.Fatal(err)
		}
		treePages += rel.Pin().IndexNodes()
	}
	iv, err := shard.ParseInterval(":")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Catalog: cat, Stripe: &iv, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 8)
	reader := func(query func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := query(); err != nil {
					fail <- err
					return
				}
			}
		}()
	}
	for _, alg := range []string{"parallel", "PQ"} {
		reader(func() error {
			_, err := cl.JoinCount(ctx, client.JoinRequest{Left: "a", Right: "b", Algorithm: alg})
			return err
		})
	}
	reader(func() error {
		_, err := cl.Window(ctx, client.WindowRequest{Relation: "a", CountOnly: true,
			Window: &client.Rect{XLo: 300, YLo: 300, XHi: 370, YHi: 370}}, nil)
		return err
	})

	compactions := 0
	for i := 0; i < *soakBatches; i++ {
		name := names[i%2]
		recs := datagen.Uniform(int64(100+i), batchSize, u, 12)
		for j := range recs {
			recs[j].ID = uint32(next[name] + j)
		}
		next[name] += batchSize
		sum, err := cl.AppendRecords(ctx, name, recordsIn(recs))
		if err != nil {
			t.Fatal(err)
		}
		if sum.Compacted {
			// Only this loop appends, so the tree in place now is the
			// one that compaction packed.
			compactions++
			treePages += mustGet(t, cat, name).Pin().IndexNodes()
		}
		select {
		case err := <-fail:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	ts.Close()
	if *soakBatches >= 40 && compactions == 0 {
		t.Fatalf("%d batches and no compaction: the soak never exercised one", *soakBatches)
	}

	// Pages: the logs, extent by extent, and the trees.
	ps := int64(store.PageSize())
	var dataBytes int64
	logPages := 0
	for _, name := range names {
		bytes := mustGet(t, cat, name).Pin().DataBytes()
		dataBytes += bytes
		pages := (bytes + ps - 1) / ps
		logPages += int((pages + iosim.ExtentPages - 1) / iosim.ExtentPages * iosim.ExtentPages)
	}
	if n := int64(next["a"] + next["b"]); dataBytes != n*geom.RecordSize {
		t.Fatalf("the logs hold %d bytes, %d records were sent", dataBytes, n)
	}
	if live := store.NumPages() - store.FreePages(); live != logPages+treePages {
		t.Fatalf("store holds %d live pages; the logs take %d and the %d packed trees %d — %d pages are unaccounted for",
			live, logPages, len(names)+compactions, treePages, live-logPages-treePages)
	}

	// Heap: bounded by the data, not by how many appends delivered it.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const processAllowance = 4 << 20
	bound := 3*dataBytes + int64(treePages+store.FreePages())*ps + processAllowance
	t.Logf("%d batches, %d compactions: %.1f MB of records, heap in use %.1f MB, bound %.1f MB",
		*soakBatches, compactions, float64(dataBytes)/1e6, float64(ms.HeapInuse)/1e6, float64(bound)/1e6)
	if int64(ms.HeapInuse) > bound {
		t.Fatalf("heap in use %d bytes after the storm, over the bound of %d", ms.HeapInuse, bound)
	}

	// Goroutines: readers, handlers and connections are all gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the storm, %d before it", n, baseline)
	}
}
