package unijoin

// Cross-validation of the parallel in-memory engine against the serial
// algorithms: identical pair sets on uniform and clustered inputs, for
// several partition counts, with and without Window restriction.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"unijoin/internal/datagen"
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

// joinPairs runs q and returns its emitted pair set.
func joinPairs(t *testing.T, q *Query) (*Results, map[Pair]bool) {
	t.Helper()
	alg := q.alg
	got := map[Pair]bool{}
	res, err := q.Emit(func(p Pair) {
		if got[p] {
			t.Fatalf("%v: pair %v emitted twice", alg, p)
		}
		got[p] = true
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != int64(len(got)) {
		t.Fatalf("%v: count %d but %d pairs emitted", alg, res.Count(), len(got))
	}
	return res, got
}

func TestParallelMatchesSerialAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 3; trial++ {
		seed := rng.Int63()
		workspaces := map[string]func() (*Workspace, *Relation, *Relation){
			"uniform": func() (*Workspace, *Relation, *Relation) {
				u := NewRect(0, 0, 1000, 1000)
				ws := NewWorkspace()
				ws.SetUniverse(u)
				a, _ := ws.AddRelation(demoRecords(seed, 800, u))
				b, _ := ws.AddRelation(demoRecords(seed+1, 600, u))
				return ws, a, b
			},
			"clustered": func() (*Workspace, *Relation, *Relation) {
				ws, a, b := clusteredWorkspace(t, seed, 800, 500)
				return ws, a, b
			},
		}
		for name, mk := range workspaces {
			ws, a, b := mk()
			_, wantSSSJ := joinPairs(t, ws.Query(a, b).Algorithm(AlgSSSJ))
			_, wantPQ := joinPairs(t, ws.Query(a, b).Algorithm(AlgPQ))
			if len(wantSSSJ) != len(wantPQ) {
				t.Fatalf("%s: serial algorithms disagree: SSSJ %d, PQ %d", name, len(wantSSSJ), len(wantPQ))
			}
			for _, k := range []int{1, 2, 8} {
				res, got := joinPairs(t, ws.Query(a, b).Algorithm(AlgParallel).Parallelism(4).Partitions(k))
				if len(got) != len(wantSSSJ) {
					t.Fatalf("%s k=%d: parallel %d pairs, serial %d", name, k, len(got), len(wantSSSJ))
				}
				for p := range wantSSSJ {
					if !got[p] {
						t.Fatalf("%s k=%d: missing pair %v", name, k, p)
					}
				}
				if res.Algorithm != "parallel" {
					t.Fatalf("algorithm label = %q", res.Algorithm)
				}
			}
		}
	}
}

func TestParallelWindowMatchesPQ(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 77, 900, 600)
	w := NewRect(150, 150, 450, 450)
	_, want := joinPairs(t, ws.Query(a, b).Algorithm(AlgPQ).Window(w))
	for _, k := range []int{1, 2, 8} {
		_, got := joinPairs(t, ws.Query(a, b).Algorithm(AlgParallel).Window(w).Parallelism(2).Partitions(k))
		if len(got) != len(want) {
			t.Fatalf("k=%d: windowed parallel %d pairs, PQ %d", k, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("k=%d: missing windowed pair %v", k, p)
			}
		}
	}
}

func TestParallelJoinReport(t *testing.T) {
	ws, a, b := clusteredWorkspace(t, 99, 1000, 700)
	ctx := context.Background()
	res, err := ws.Query(a, b).Algorithm(AlgParallel).Parallelism(3).Partitions(9).CountOnly().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Fatal("clustered join should produce pairs")
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
	// Loading the two record streams is charged to the simulated disk
	// — by the query that builds the relations' prepared runs.
	if res.IO.Total() == 0 || res.PrepareWall <= 0 {
		t.Fatalf("cold query: %d page accesses, PrepareWall %v; record loading should be charged", res.IO.Total(), res.PrepareWall)
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
	// The second query on the same epochs finds both runs warm and
	// never touches the simulated disk.
	if res2.IO.Total() != 0 || res2.PrepareWall != 0 {
		t.Fatalf("warm query: %d page accesses, PrepareWall %v; want none", res2.IO.Total(), res2.PrepareWall)
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
