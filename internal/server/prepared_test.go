package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unijoin"
	"unijoin/client"
	"unijoin/internal/datagen"
	"unijoin/internal/obs"
)

// writeHook runs fn once, on the response's first body write — inside
// Query.Run, after the join has pinned its epochs, since the handler
// streams from the engine's emit callbacks.
type writeHook struct {
	*httptest.ResponseRecorder
	fn func()
}

func (w *writeHook) Write(p []byte) (int, error) {
	if w.fn != nil {
		fn := w.fn
		w.fn = nil
		fn()
	}
	return w.ResponseRecorder.Write(p)
}

// TestJoinSummaryDescribesPinnedEpochs is the torn-summary regression:
// an append that lands between the join's pin and its summary must not
// leak into left_records/right_records, which describe the inputs the
// pair count was computed on. The catalog is large enough that the
// join's pairs fill several batches, so the first body write — and the
// append with it — happens while the join is still running.
func TestJoinSummaryDescribesPinnedEpochs(t *testing.T) {
	for _, alg := range []string{"PQ", "parallel"} {
		cat := testCatalog(t, 2000)
		roads, hydro := mustGet(t, cat, "roads"), mustGet(t, cat, "hydro")
		wantLeft, wantRight := roads.Pin().Len(), hydro.Pin().Len()
		s := New(Config{Catalog: cat, Logger: quietLogger()})

		u := unijoin.NewRect(0, 0, 1000, 1000)
		extra := datagen.Uniform(9, 40, u, 40)
		for i := range extra {
			extra[i].ID += 1 << 20
		}
		rec := &writeHook{ResponseRecorder: httptest.NewRecorder(), fn: func() {
			for _, rel := range []*unijoin.Relation{roads, hydro} {
				if _, err := rel.Append(extra); err != nil {
					t.Error(err)
				}
			}
		}}
		body := `{"left":"roads","right":"hydro","algorithm":"` + alg + `"}`
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/join", strings.NewReader(body)))
		if rec.fn != nil || roads.Pin().Len() != wantLeft+40 {
			t.Fatalf("%s: the append did not land mid-stream", alg)
		}

		var sum *client.JoinSummary
		var streamed int64
		sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line client.JoinLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: bad line %q: %v", alg, sc.Text(), err)
			}
			streamed += int64(len(line.Pairs))
			if line.Summary != nil {
				sum = line.Summary
			}
		}
		if sum == nil {
			t.Fatalf("%s: no summary in %d response bytes", alg, rec.Body.Len())
		}
		if sum.LeftRecords != wantLeft || sum.RightRecords != wantRight {
			t.Fatalf("%s: summary reports %d/%d records; the join pinned %d/%d (live relations now hold %d/%d)",
				alg, sum.LeftRecords, sum.RightRecords, wantLeft, wantRight, roads.Pin().Len(), hydro.Pin().Len())
		}
		if sum.Pairs != streamed {
			t.Fatalf("%s: summary counts %d pairs, stream carried %d", alg, sum.Pairs, streamed)
		}
		if streamed <= 2*DefaultBatchPairs {
			t.Fatalf("%s: %d pairs fill too few batches for the first write to land mid-join", alg, streamed)
		}
	}
}

// TestPrepareCostIsReportedWherePaid: the join that builds or merges a
// prepared run says so — a prepare child leading its span tree and a
// tick of sj_prepared_builds_total{kind} — and a join that finds the
// runs warm shows neither. That is as true of the default algorithm as
// of "parallel": a served PQ runs on the same resident runs, says
// engine=resident on its trace, and once they are warm does not touch
// the simulated disk at all.
func TestPrepareCostIsReportedWherePaid(t *testing.T) {
	for _, alg := range []string{"parallel", "PQ"} {
		cat := testCatalog(t, 2000)
		reg := obs.NewRegistry()
		_, cl, _ := testServer(t, Config{Catalog: cat, Registry: reg})
		ctx := context.Background()
		store := cat.Workspace().Store()

		join := func(wantPrepare bool, wantFull, wantMerge int) {
			t.Helper()
			before := store.Counters()
			sum, err := cl.JoinCount(ctx, client.JoinRequest{
				Left: "roads", Right: "hydro", Algorithm: alg, Parallelism: 1, Trace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, c := range sum.Spans.Children {
				names = append(names, c.Name)
			}
			want := []string{"partition", "sweep", "stream"}
			if wantPrepare {
				want = append([]string{"prepare"}, want...)
			}
			if strings.Join(names, ",") != strings.Join(want, ",") {
				t.Fatalf("%s: span children %v, want %v", alg, names, want)
			}
			if got := sum.Spans.Attrs["engine"]; got != "resident" || sum.Algorithm != alg {
				t.Fatalf("%s: the trace says engine=%q and the summary algorithm %q", alg, got, sum.Algorithm)
			}
			if io := store.Counters().Sub(before); !wantPrepare && io.Total() != 0 {
				t.Fatalf("%s: a warm join moved the store's counters by {%s}", alg, io)
			}
			text := reg.Render()
			for kind, n := range map[string]int{"full": wantFull, "merge": wantMerge} {
				line := `sj_prepared_builds_total{kind="` + kind + `"} ` + string(rune('0'+n))
				if !strings.Contains(text, line+"\n") {
					t.Fatalf("%s: /metrics lacks %q", alg, line)
				}
			}
		}
		join(true, 2, 0)  // cold: both relations read and sorted
		join(false, 2, 0) // warm
		hydro := mustGet(t, cat, "hydro")
		extra := datagen.Uniform(5, 100, unijoin.NewRect(0, 0, 1000, 1000), 40)
		for i := range extra {
			extra[i].ID += 1 << 20
		}
		if _, err := hydro.Append(extra); err != nil {
			t.Fatal(err)
		}
		join(true, 2, 1)  // new epoch of one side: one merge
		join(false, 2, 1) // warm again
	}
}
