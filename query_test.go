package unijoin

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"unijoin/internal/datagen"
	"unijoin/internal/jointest"
)

// queryAlgorithms is every algorithm the equivalence tests cover; all
// of them must produce identical pair sets through every emit mode.
var queryAlgorithms = []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM, AlgST, AlgAuto, AlgBFRJ, AlgParallel}

// residentAlgorithms are the ones a Catalog's workspace runs on the
// relations' prepared runs instead of the simulated disk.
var residentAlgorithms = []Algorithm{AlgPQ, AlgSSSJ}

// engines returns the workspaces the equivalence tables run alg on: ws
// itself, and for the algorithms that have a resident form a view of the
// same simulated disk — the same relations — that joins the way a
// Catalog's workspace does. Both must give the reference's answer, so
// resident PQ ≡ simulator PQ ≡ brute force wherever a table ranges.
func engines(ws *Workspace, alg Algorithm) []engine {
	out := []engine{{"simulated", ws}}
	if slices.Contains(residentAlgorithms, alg) {
		out = append(out, engine{"resident", residentView(ws)})
	}
	return out
}

type engine struct {
	name string
	ws   *Workspace
}

// residentView returns a workspace on ws's simulated disk that joins
// the way a Catalog's does.
func residentView(ws *Workspace) *Workspace {
	view := *ws
	view.resident = true
	return &view
}

// checkEmitModes runs the query newQuery builds once per way of
// receiving its pairs — only counted, collected for the Pairs()
// iterator, through Emit, through EmitBatch — and holds every one to
// want, the reference join of a and b.
func checkEmitModes(t *testing.T, what string, newQuery func() *Query, a, b []Record, want jointest.Bag[Pair]) {
	t.Helper()
	emitted, batched := jointest.Bag[Pair]{}, jointest.Bag[Pair]{}
	batches := 0
	for mode, q := range map[string]*Query{
		"CountOnly": newQuery().CountOnly(),
		"Pairs()":   newQuery(),
		"Emit":      newQuery().Emit(emitted.Add),
		"EmitBatch": newQuery().EmitBatch(func(ps []Pair) {
			if batches++; len(ps) == 0 {
				t.Errorf("%s: EmitBatch delivered an empty batch", what)
			}
			// Batches are reused after the call: count them now.
			batched.Union(jointest.BagOf(ps))
		}),
	} {
		res, err := q.Run(context.Background())
		if err != nil {
			t.Fatalf("%s %s: %v", what, mode, err)
		}
		if res.Collected() != (mode == "Pairs()") || res.Count() != want.Len() {
			t.Fatalf("%s %s: Collected() = %v, Count() = %d, the reference finds %d", what, mode, res.Collected(), res.Count(), want.Len())
		}
		got := map[string]jointest.Bag[Pair]{"Pairs()": jointest.BagOf(res.PairSlice()), "Emit": emitted, "EmitBatch": batched}[mode]
		if mode != "CountOnly" {
			jointest.CheckJoin(t, what+" "+mode, a, b, want, got)
		}
	}
	if want.Len() > 0 && batches == 0 {
		t.Fatalf("%s: EmitBatch never called despite results", what)
	}
}

// TestQueryEmitModesEquivalence is the equivalence property of the
// Query API: for every algorithm on every engine that runs it, with and
// without a window, on indexed relations of ordinary data and of every
// shape of the shared generator, counting, the Pairs() iterator, the
// Emit callback and the EmitBatch callback all deliver exactly the
// reference's pairs.
func TestQueryEmitModesEquivalence(t *testing.T) {
	type dataset struct {
		name   string
		ws     *Workspace
		a, b   *Relation
		ra, rb []Record
	}
	ws, a, b, ra, rb := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	datasets := []dataset{{"demo data", ws, a, b, ra, rb}}
	u := NewRect(0, 0, 1000, 1000)
	for _, sh := range jointest.Shapes {
		in := sh.Gen(7, u, []Coord{250, 500, 750})
		ws := NewWorkspace()
		ws.SetUniverse(u)
		datasets = append(datasets, dataset{sh.Name, ws, liveRelation(t, ws, "a", in.A[:in.BaseA], in.A[in.BaseA:], true),
			liveRelation(t, ws, "b", in.B[:in.BaseB], in.B[in.BaseB:], true), in.A, in.B})
	}
	// Beside the ordinary window: one whose right edge is the shapes'
	// middle cut, where on-cuts records end and start, and two of no area
	// — a segment along that cut and a point — which the run's y-slab cut
	// and the engine's window test must both treat as closed rectangles.
	win, onCut := NewRect(100, 100, 600, 600), NewRect(100, 100, 500, 600)
	segment, point := NewRect(500, 100, 500, 900), NewRect(500, 500, 500, 500)
	windows := map[string][]*Rect{"full": {nil}, "window": {&win, &onCut, &segment, &point}}
	for _, alg := range queryAlgorithms {
		for name, wins := range windows {
			t.Run(alg.String()+"/"+name, func(t *testing.T) {
				for _, d := range datasets {
					for _, e := range engines(d.ws, alg) {
						for _, w := range wins {
							checkEmitModes(t, fmt.Sprintf("%s, %s, window %v", d.name, e.name, w), func() *Query {
								q := e.ws.Query(d.a, d.b).Algorithm(alg)
								if w != nil {
									q.Window(*w)
								}
								return q
							}, d.ra, d.rb, jointest.Join(d.ra, d.rb, w))
						}
					}
				}
			})
		}
	}
}

// TestQueryCountOnlyAndIteratorBreak covers the two remaining result
// modes: CountOnly keeps the accounting but yields no pairs, and
// breaking out of the iterator early stops cleanly.
func TestQueryCountOnlyAndIteratorBreak(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	want := jointest.Join(ra, rb, nil).Len()

	res, err := ws.Query(a, b).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != want {
		t.Fatalf("count-only = %d, want %d", res.Count(), want)
	}
	if res.Collected() || res.PairSlice() != nil {
		t.Fatal("count-only must not buffer pairs")
	}
	for range res.Pairs() {
		t.Fatal("count-only iterator must be empty")
	}

	res, err = ws.Query(a, b).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	for range res.Pairs() {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("early break saw %d pairs", seen)
	}
}

// TestQueryBuilderChain checks a chain of builder methods configures
// one query: algorithm, window and callback all apply.
func TestQueryBuilderChain(t *testing.T) {
	ws, a, b, ra, rb := demoWorkspace(t)
	w := NewRect(0, 0, 300, 300)
	want := jointest.Join(ra, rb, &w).Len()

	var n int64
	res, err := ws.Query(a, b).
		Algorithm(AlgSSSJ).
		Window(w).
		Emit(func(Pair) { n++ }).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != want || res.Count() != n {
		t.Fatalf("builder chain: emitted %d, counted %d, want %d", n, res.Count(), want)
	}
}

// TestQueryTypedErrors pins the sentinel classification of every
// failure class.
func TestQueryTypedErrors(t *testing.T) {
	ws, a, b, _, _ := demoWorkspace(t)
	ctx := context.Background()

	if _, err := ws.Query(nil, b).Run(ctx); !errors.Is(err, ErrNilRelation) {
		t.Fatalf("nil left relation: %v", err)
	}
	if _, err := ws.Query(a, nil).Run(ctx); !errors.Is(err, ErrNilRelation) {
		t.Fatalf("nil right relation: %v", err)
	}
	for _, alg := range []Algorithm{AlgST, AlgBFRJ} {
		if _, err := ws.Query(a, b).Algorithm(alg).Run(ctx); !errors.Is(err, ErrNeedsIndex) {
			t.Fatalf("%v without indexes: %v", alg, err)
		}
	}
	if _, err := ws.Query(nil, b).Algorithm(AlgParallel).CountOnly().Run(ctx); !errors.Is(err, ErrNilRelation) {
		t.Fatalf("parallel engine, nil relation: %v", err)
	}
	// Emit and EmitBatch are mutually exclusive.
	if _, err := ws.Query(a, b).Emit(func(Pair) {}).EmitBatch(func([]Pair) {}).Run(ctx); err == nil {
		t.Fatal("Emit+EmitBatch must error")
	}
}

// TestQueryPreCanceledContext: a context canceled before Run returns
// ErrCanceled from every algorithm without doing the join.
func TestQueryPreCanceledContext(t *testing.T) {
	ws, a, b, _, _ := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := b.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range queryAlgorithms {
		_, err := ws.Query(a, b).Algorithm(alg).Run(ctx)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", alg, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: ErrCanceled must wrap context.Canceled, got %v", alg, err)
		}
	}
	// Multiway and Plan honor the canceled context too.
	if _, err := ws.MultiwayJoin(ctx, []*Relation{a, b}, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("multiway: %v", err)
	}
	if _, err := ws.Plan(ctx, Machine1, a, b); !errors.Is(err, ErrCanceled) {
		t.Fatalf("plan: %v", err)
	}
}

// TestQueryCancelMidJoin cancels the context from inside the Emit
// callback — deterministically mid-sweep — and requires the join to
// stop with ErrCanceled instead of running to completion.
func TestQueryCancelMidJoin(t *testing.T) {
	u := NewRect(0, 0, 1000, 1000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	a, err := ws.AddRelation(datagen.Uniform(7, 4000, u, 40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.AddRelation(datagen.Uniform(8, 4000, u, 40))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ws.Query(a, b).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.Count() < 1000 {
		t.Fatalf("workload too small to cancel mid-join: %d pairs", full.Count())
	}

	for _, alg := range []Algorithm{AlgPQ, AlgSSSJ, AlgPBSM} {
		ctx, cancel := context.WithCancel(context.Background())
		var emitted atomic.Int64
		_, err := ws.Query(a, b).Algorithm(alg).Emit(func(Pair) {
			if emitted.Add(1) == 100 {
				cancel()
			}
		}).Run(ctx)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", alg, err)
		}
		if got := emitted.Load(); got >= full.Count() {
			t.Fatalf("%v: join ran to completion (%d pairs) despite cancel", alg, got)
		}
	}
}

// TestQueryDeadline: an already-expired deadline surfaces as
// ErrCanceled that also matches context.DeadlineExceeded.
func TestQueryDeadline(t *testing.T) {
	ws, a, b, _, _ := demoWorkspace(t)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	_, err := ws.Query(a, b).Run(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error must match context.DeadlineExceeded: %v", err)
	}
}

// TestParallelQueryCancelMidJoin cancels a large AlgParallel join
// shortly after it starts; the worker pool must stop and report
// ErrCanceled. Run under -race in CI, this also proves the
// cancellation path is data-race-free.
func TestParallelQueryCancelMidJoin(t *testing.T) {
	u := NewRect(0, 0, 100_000, 100_000)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	a, err := ws.AddRelation(datagen.Uniform(1, 120_000, u, 40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.AddRelation(datagen.Uniform(2, 120_000, u, 40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = ws.Query(a, b).Algorithm(AlgParallel).Parallelism(4).Run(ctx)
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		t.Skip("join finished before the cancel landed (very fast host)")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Promptness: the kernel checks every 1024 records, so the abort
	// must come in far under the multi-hundred-ms full join time.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelation took %v", elapsed)
	}
}

// TestResultsExposesAccounting: the Results value carries the same
// accounting the old JoinResult did.
func TestResultsExposesAccounting(t *testing.T) {
	ws, a, b, _, _ := demoWorkspace(t)
	if err := a.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := ws.Query(a, b).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.IO.Total() == 0 {
		t.Fatal("I/O accounting missing")
	}
	if res.ObservedTotal(Machine1) <= 0 {
		t.Fatal("machine pricing missing")
	}
	if res.PageRequests == 0 {
		t.Fatal("indexed side should report page requests")
	}
	// AlgAuto exposes its decision.
	auto, err := ws.Query(a, b).Algorithm(AlgAuto).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if auto.Decision == nil {
		t.Fatal("auto query must report its decision")
	}
	// AlgParallel exposes the engine report.
	par, err := ws.Query(a, b).Algorithm(AlgParallel).CountOnly().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if par.Parallel == nil || par.Parallel.Workers < 1 {
		t.Fatal("parallel query must carry the engine report")
	}
}
