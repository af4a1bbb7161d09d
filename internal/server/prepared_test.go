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

// TestPrepareCostIsReportedWherePaid: a relation's prepared run is
// built when it is loaded, so no join pays for it — not the first one
// either. The join that merges an appended epoch's run says so — a
// prepare child leading its span tree and a tick of
// sj_prepared_builds_total{kind="merge"} — and a join that finds the
// runs merged shows neither. The stripes are the other thing a join
// prepares once per version pair: the first join of a pair ticks
// kind="stripes", the left relation then reports the layout's bytes,
// and a repeat ticks nothing, nor does a windowed join. That is as true of the default algorithm
// as of "parallel": a served PQ runs on the same resident runs, says
// engine=resident on its trace, and does not touch the simulated disk
// at all.
func TestPrepareCostIsReportedWherePaid(t *testing.T) {
	for _, alg := range []string{"parallel", "PQ"} {
		cat := testCatalog(t, 2000)
		reg := obs.NewRegistry()
		_, cl, _ := testServer(t, Config{Catalog: cat, Registry: reg})
		ctx := context.Background()
		store := cat.Workspace().Store()

		join := func(wantPrepare bool, wantMerge, wantStripes int) {
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
			if io := store.Counters().Sub(before); io.Total() != 0 {
				t.Fatalf("%s: a join moved the store's counters by {%s}", alg, io)
			}
			text := reg.Render()
			for _, line := range []string{
				`sj_prepared_builds_total{kind="merge"} ` + string(rune('0'+wantMerge)),
				`sj_prepared_builds_total{kind="stripes"} ` + string(rune('0'+wantStripes)),
			} {
				if !strings.Contains(text, line+"\n") {
					t.Fatalf("%s: /metrics lacks %q", alg, line)
				}
			}
			rels, err := cl.Relations(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rels {
				if (r.StripeBytes > 0) != (r.Name == "roads") {
					t.Fatalf("%s: %s reports %d stripe bytes; only the left relation holds stripes", alg, r.Name, r.StripeBytes)
				}
			}
			if strings.Contains(text, `sj_prepared_builds_total{kind="full"}`) {
				t.Fatalf("%s: /metrics still counts full builds", alg)
			}
		}
		join(false, 0, 1) // the first join: both runs built at load, the stripes laid out
		join(false, 0, 1)
		hydro := mustGet(t, cat, "hydro")
		extra := datagen.Uniform(5, 100, unijoin.NewRect(0, 0, 1000, 1000), 40)
		for i := range extra {
			extra[i].ID += 1 << 20
		}
		if _, err := hydro.Append(extra); err != nil {
			t.Fatal(err)
		}
		join(true, 1, 2)  // new epoch of one side: one merge, new stripes
		join(false, 1, 2) // merged and laid out
		// A windowed join lays out stripes for itself alone, and keeps
		// none: it ticks nothing, though it reuses nothing either.
		if _, err := cl.JoinCount(ctx, client.JoinRequest{
			Left: "roads", Right: "hydro", Algorithm: alg, Parallelism: 1,
			Window: &client.Rect{XLo: 0, YLo: 0, XHi: 500, YHi: 500},
		}); err != nil {
			t.Fatal(err)
		}
		if line := `sj_prepared_builds_total{kind="stripes"} 2`; !strings.Contains(reg.Render(), line+"\n") {
			t.Fatalf("%s: after a windowed join /metrics lacks %q", alg, line)
		}
	}
}
