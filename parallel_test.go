package unijoin

// Cross-validation of the parallel in-memory engine against the serial
// algorithms and the reference: identical pairs on uniform and clustered
// inputs, for several partition counts, with and without Window
// restriction.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"unijoin/internal/datagen"
	"unijoin/internal/ingest"
	"unijoin/internal/jointest"
)

// clusteredWorkspace builds a workspace over TIGER-like skewed inputs.
func clusteredWorkspace(t *testing.T, seed int64, nRoads, nHydro int) (*Workspace, *Relation, *Relation) {
	t.Helper()
	u := NewRect(0, 0, 1000, 1000)
	terr := datagen.NewTerrain(seed, u, 15)
	ws := NewWorkspace()
	ws.SetUniverse(u)
	a, err := ws.AddNamedRelation("roads", datagen.Roads(terr, seed+1, nRoads, datagen.RoadParams{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.AddNamedRelation("hydro", datagen.Hydro(terr, seed+2, nHydro, datagen.HydroParams{}))
	if err != nil {
		t.Fatal(err)
	}
	return ws, a, b
}

// joinPairs runs q and returns its emitted pairs.
func joinPairs(t *testing.T, q *Query) jointest.Bag[Pair] {
	t.Helper()
	got := jointest.Bag[Pair]{}
	res, err := q.Emit(got.Add).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != got.Len() {
		t.Fatalf("%v: count %d but %d pairs emitted", q.alg, res.Count(), got.Len())
	}
	return got
}

func TestParallelMatchesSerialAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 3; trial++ {
		seed := rng.Int63()
		u := NewRect(0, 0, 1000, 1000)
		uws := NewWorkspace()
		uws.SetUniverse(u)
		ua, _ := uws.AddRelation(demoRecords(seed, 800, u))
		ub, _ := uws.AddRelation(demoRecords(seed+1, 600, u))
		cws, ca, cb := clusteredWorkspace(t, seed, 800, 500)
		for name, c := range map[string]struct {
			ws   *Workspace
			a, b *Relation
		}{"uniform": {uws, ua, ub}, "clustered": {cws, ca, cb}} {
			want := joinPairs(t, c.ws.Query(c.a, c.b).Algorithm(AlgSSSJ))
			jointest.Check(t, name+": PQ against SSSJ", want, joinPairs(t, c.ws.Query(c.a, c.b).Algorithm(AlgPQ)), nil)
			for _, k := range []int{1, 2, 8} {
				jointest.Check(t, fmt.Sprintf("%s: parallel join, %d stripes, against SSSJ", name, k), want,
					joinPairs(t, c.ws.Query(c.a, c.b).Algorithm(AlgParallel).Parallelism(4).Partitions(k)), nil)
			}
		}
	}
}

func TestParallelWindowMatchesPQ(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 77, 900, 600)
	w := NewRect(150, 150, 450, 450)
	want := joinPairs(t, ws.Query(a, b).Algorithm(AlgPQ).Window(w))
	for _, k := range []int{1, 2, 8} {
		got := joinPairs(t, ws.Query(a, b).Algorithm(AlgParallel).Window(w).Parallelism(2).Partitions(k))
		jointest.Check(t, fmt.Sprintf("windowed parallel join, %d stripes, against PQ", k), want, got, nil)
	}
}

func TestParallelJoinReport(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 99, 1000, 700)
	ctx := context.Background()
	res, err := ws.Query(a, b).Algorithm(AlgParallel).Parallelism(3).Partitions(9).CountOnly().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 || res.Algorithm != "parallel" {
		t.Fatalf("clustered join: %d pairs under the label %q", res.Count(), res.Algorithm)
	}
	if res.Parallel.Workers != 3 || res.Parallel.Partitions != 9 {
		t.Fatalf("resolved %d workers x %d partitions", res.Parallel.Workers, res.Parallel.Partitions)
	}
	if res.Parallel.Wall <= 0 || res.HostCPU != res.Parallel.Wall {
		t.Fatalf("wall-clock accounting: HostCPU %v, Wall %v", res.HostCPU, res.Parallel.Wall)
	}
	if res.Parallel.Replication < 1 {
		t.Fatalf("replication = %f", res.Parallel.Replication)
	}
	// The relations' prepared runs were built when they were loaded:
	// even the first query prepares nothing (TestRelationIsNeverCold
	// counts its pages).
	if res.Prepared != [2]ingest.Build{} || res.PrepareWall != 0 {
		t.Fatalf("first query: Prepared %q, PrepareWall %v; want none", res.Prepared, res.PrepareWall)
	}
	if _, err := ws.Query(nil, b).Algorithm(AlgParallel).CountOnly().Run(ctx); err == nil {
		t.Fatal("nil relation must error")
	}
	// Defaulted options: workers fall back to GOMAXPROCS.
	res2, err := ws.Query(a, b).Algorithm(AlgParallel).CountOnly().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count() != res.Count() {
		t.Fatalf("default options changed the result: %d vs %d", res2.Count(), res.Count())
	}
	if want := runtime.GOMAXPROCS(0); res2.Parallel.Workers > want {
		t.Fatalf("default workers = %d, more than GOMAXPROCS = %d", res2.Parallel.Workers, want)
	}
}

func TestAlgParallelString(t *testing.T) {
	if AlgParallel.String() != "parallel" {
		t.Fatalf("AlgParallel.String() = %q", AlgParallel.String())
	}
}
