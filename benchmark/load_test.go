package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"unijoin/internal/datagen"
	"unijoin/internal/geom"
	"unijoin/internal/server"
	"unijoin/internal/shard"
)

// The smoke tests drive the real load loop, plans and answer checks
// against in-process httptest fleets — the same handlers sjserved and
// sjrouter mount, no child processes — for a fraction of a second.

// smokeEnv builds a small uniform dataset (standing in for both the
// TIGER-like and the uniform one) with its append batches and prefix
// table.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	u := geom.NewRect(0, 0, 1000, 1000)
	d, err := newDataset(t.TempDir(), u,
		relation{Name: "a", Recs: datagen.Uniform(1, 3000, u, 25)},
		relation{Name: "b", Recs: datagen.Uniform(2, 2000, u, 25)})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{cfg: config{Seed: 1}, tiger: d, uniform: d}
	e.batches = appendBatches(d, 1, 60)
	e.appendBodies = appendBodies(e.batches)
	e.prefix = newPrefixTable(d.Left.Recs, e.batches, d.Right.Recs, d.Bounds)
	return e
}

// smokeFleet serves d in-process: one direct server, or three striped
// shards behind a router service. It returns the front URL.
func smokeFleet(t *testing.T, d *dataset, routed bool) string {
	t.Helper()
	if !routed {
		cat, _, _, err := catalogOf(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(server.New(server.Config{Catalog: cat, Logger: quietLogger}).Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}
	var urls []string
	for _, stripe := range d.Stripes {
		iv, err := shard.ParseInterval(stripe)
		if err != nil {
			t.Fatal(err)
		}
		cat, _, _, err := catalogOf(d, &iv)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(server.New(server.Config{Catalog: cat, Logger: quietLogger, Stripe: &iv}).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	router, err := shard.NewRouter(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(shard.NewService(shard.ServiceConfig{Router: router, Logger: quietLogger}).Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// smokeRound runs one workload for d against an in-process fleet and
// returns its accounting.
func smokeRound(t *testing.T, e *env, w *workload, d time.Duration) *roundResult {
	t.Helper()
	data, err := w.data(e)
	if err != nil {
		t.Fatal(err)
	}
	plan := w.plan(e, data, smokeFleet(t, data, w.routed))
	load, err := runLoad(context.Background(), plan, d, "", nil)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	res := &roundResult{Workload: w.Name}
	res.tally(context.Background(), load, plan)
	return res
}

func TestLoadLoopAnswersEveryWorkloadCorrectly(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloads {
		res := smokeRound(t, e, w, 250*time.Millisecond)
		if res.Ops == 0 || res.Failed != 0 {
			t.Errorf("%s: %d correct ops, %d of %d failed: %v", w.Name, res.Ops, res.Failed, res.Attempted, res.Failures)
		}
		m := res.endToEnd()
		if m[mThroughput] <= 0 || m[mP50] <= 0 || m[mP95] < m[mP50] {
			t.Errorf("%s: implausible metrics %v", w.Name, m)
		}
		if w.Name == onIngest && res.Attempted <= len(res.LatencyMS)+1 {
			t.Errorf("%s: the appender sent nothing (attempted %d, joins %d)", w.Name, res.Attempted, len(res.LatencyMS))
		}
	}
}

// TestWrongReferenceFailsEveryOp shows that the checker bites: with a
// reference that is off by one pair, every answer of every join
// workload counts as failed, and a window whose recheck disagrees is
// caught after the round.
func TestWrongReferenceFailsEveryOp(t *testing.T) {
	e := smokeEnv(t)
	e.uniform.Join.Pairs++ // tiger and uniform are the same dataset here
	for s := range e.prefix.counts {
		for k := range e.prefix.counts[s] {
			e.prefix.counts[s][k] += 1 << 40
		}
	}
	for _, name := range []string{onDirect, onStream, onIngest} {
		w, _ := workloadByName(name)
		// The warm-up already meets the wrong reference and stops the
		// round; that too must surface as an error, never as a pass.
		data, _ := w.data(e)
		plan := w.plan(e, data, smokeFleet(t, data, w.routed))
		if _, err := runLoad(context.Background(), plan, 100*time.Millisecond, "", nil); err == nil {
			t.Errorf("%s: warm-up accepted answers that contradict the reference", name)
		}
		// Past the warm-up, every op fails.
		for i, op := range plan.ops {
			if _, err := op(context.Background(), false); err == nil {
				t.Errorf("%s client %d: op accepted an answer that contradicts the reference", name, i)
			}
		}
	}

	// failed_share reaches 1 when every op of a window is wrong.
	res := &roundResult{Workload: onDirect}
	w, _ := workloadByName(onDirect)
	data, _ := w.data(e)
	plan := w.plan(e, data, smokeFleet(t, data, false))
	load := &loadResult{window: time.Second}
	for range 10 {
		_, err := plan.ops[0](context.Background(), false)
		load.samples = append(load.samples, sample{err: err, latency: time.Millisecond})
	}
	res.tally(context.Background(), load, plan)
	if got := res.endToEnd()[mFailed]; got != 1 {
		t.Errorf("failed_share = %v with a wrong reference, want 1", got)
	}
}

func TestWindowRecheckCatchesAWrongAnswer(t *testing.T) {
	e := smokeEnv(t)
	w, _ := workloadByName(onWindow)
	data, _ := w.data(e)
	plan := w.plan(e, data, smokeFleet(t, data, true))
	for range 2 * windowRecheckEvery {
		if _, err := plan.ops[0](context.Background(), false); err != nil {
			t.Fatal(err)
		}
	}
	if n, failures := plan.after(context.Background()); n != 2 || len(failures) != 0 {
		t.Fatalf("recheck of correct answers: %d checked, failures %v", n, failures)
	}
	// Remove a record from the reference's copy: the kept answers now
	// disagree with the linear scan wherever that record was returned.
	data.Left.Recs = nil
	if _, failures := plan.after(context.Background()); len(failures) == 0 {
		t.Errorf("recheck accepted answers that contradict the scan")
	}
}
