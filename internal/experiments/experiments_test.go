package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"unijoin/internal/tiger"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config {
	return Config{
		Tiger: tiger.Config{Scale: 0.0005, Seed: 1997, Clusters: 20},
		Sets:  []string{"NJ", "NY"},
	}
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 1 must have 3 machines, got %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "50" || tab.Rows[2][1] != "500" {
		t.Fatalf("CPU columns wrong: %v", tab.Rows)
	}
	if !strings.Contains(tab.String(), "Cheetah") {
		t.Fatal("disk models missing from Table 1")
	}
}

func TestPrepareBuildsConsistentEnv(t *testing.T) {
	cfg := tinyConfig()
	env, err := Prepare(cfg, tiger.NJ)
	if err != nil {
		t.Fatal(err)
	}
	if env.RoadsTree.NumRecords() == 0 || env.HydroTree.NumRecords() == 0 {
		t.Fatal("empty relations")
	}
	if env.BuildIO.Total() == 0 {
		t.Fatal("bulk loading must cost I/O")
	}
	// Options must reset counters.
	_ = env.Options()
	if env.Store.Counters().Total() != 0 {
		t.Fatal("Options must reset store counters")
	}
}

func TestTable2OutputsWithinBand(t *testing.T) {
	tab, err := Table2(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		r, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[len(row)-1])
		}
		if r < 0.3 || r > 3 {
			t.Fatalf("%s: output ratio %v outside band", row[0], r)
		}
	}
}

func TestTable3MemoryStaysSmall(t *testing.T) {
	// Table3 itself enforces the memory bound; just run it.
	if _, err := Table3(context.Background(), tinyConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestTable4PQOptimal(t *testing.T) {
	tab, err := Table4(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err) // Table4 errors if PQ is not exactly optimal
	}
	for _, row := range tab.Rows {
		if row[3] != "1.00" {
			t.Fatalf("PQ avg requests %s != 1.00", row[3])
		}
	}
}

func TestFig2And3Shapes(t *testing.T) {
	cfg := tinyConfig()
	f2, err := Fig2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 sets x 3 machines x 2 algorithms.
	if len(f2.Rows) != 12 {
		t.Fatalf("fig2 rows = %d", len(f2.Rows))
	}
	f3, err := Fig3(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 sets x 3 machines x 4 algorithms.
	if len(f3.Rows) != 24 {
		t.Fatalf("fig3 rows = %d", len(f3.Rows))
	}
}

func TestSelectiveCrossesOver(t *testing.T) {
	// DISK1 at 1/500 scale has enough leaves (~35 in the road tree)
	// for the random-access pattern of the index path to express.
	cfg := Config{
		Tiger: tiger.Config{Scale: 0.002, Seed: 1997, Clusters: 40},
		Sets:  []string{"DISK1"},
	}
	tab, err := Selective(context.Background(), cfg, "DISK1")
	if err != nil {
		t.Fatal(err)
	}
	// The index must win at the smallest window and lose at 100%,
	// and the cost model must flip from index to sort somewhere near
	// its threshold (the paper's 60% rule).
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	if first[5] != "index" {
		t.Fatalf("smallest window winner = %s, want index", first[5])
	}
	if last[5] != "sort" {
		t.Fatalf("full window winner = %s, want sort", last[5])
	}
	if first[6] != "index" || last[6] != "sort" {
		t.Fatalf("model must also flip: first=%s last=%s", first[6], last[6])
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry is slow")
	}
	cfg := tinyConfig()
	var sb strings.Builder
	if err := RunAll(context.Background(), cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range IDs {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("output missing experiment %s", id)
		}
	}
}

func TestOneIndexStrategiesAgree(t *testing.T) {
	// OneIndex itself errors if any strategy's pair count diverges.
	cfg := tinyConfig()
	tab, err := OneIndex(context.Background(), cfg, "NY")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(tab.Rows))
	}
}

func TestBFRJCompareApproachesLowerBound(t *testing.T) {
	// Needs enough tree pages for the level-wise global ordering to
	// matter; 1/100 scale gives ~200.
	cfg := Config{
		Tiger: tiger.Config{Scale: 0.01, Seed: 1997, Clusters: 40},
		Sets:  []string{"DISK1"},
	}
	tab, err := BFRJCompare(context.Background(), cfg, "DISK1")
	if err != nil {
		t.Fatal(err)
	}
	// At the largest pool, both columns must read 1.00.
	last := tab.Rows[len(tab.Rows)-1]
	if last[2] != "1.00" || last[4] != "1.00" {
		t.Fatalf("full pool should be optimal for both: %v", last)
	}
	// At the smallest pool, BFRJ must be closer to optimal than ST.
	first := tab.Rows[0]
	if !(first[4] < first[2]) {
		t.Fatalf("BFRJ avg %s should be below ST avg %s at a small pool", first[4], first[2])
	}
}

func TestRegistryUnknownID(t *testing.T) {
	if err := Run(context.Background(), "nope", tinyConfig(), &strings.Builder{}); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestAblationSweepAgreesOnPairs(t *testing.T) {
	// AblationSweep itself verifies pair equality between structures.
	if _, err := AblationSweep(context.Background(), tinyConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestAblationPoolMonotone(t *testing.T) {
	cfg := tinyConfig()
	tab, err := AblationSTBufferPool(context.Background(), cfg, "NY")
	if err != nil {
		t.Fatal(err)
	}
	// Requests must not increase as the pool grows.
	prev := int64(1 << 62)
	for _, row := range tab.Rows {
		v, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatalf("bad requests cell %q", row[1])
		}
		if v > prev {
			t.Fatalf("requests increased with pool size: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 7)
	out := tab.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestPaperTablesGolden holds Tables 2-4 at QuickConfig to the
// committed rows, field by field: the paper's page-access counts,
// memory profiles and output sizes are exact on the simulated disk, so
// any change to them is a change of algorithm, not noise. When one is
// intended, regenerate with
//
//	go run ./cmd/sjbench -exp table2,table3,table4 -scale 0.002 -sets NJ,NY,DISK1 -json \
//		> internal/experiments/testdata/tables_quick.jsonl
//
// (the flags spell QuickConfig) and say why in CHANGES.md.
func TestPaperTablesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range []string{"table2", "table3", "table4"} {
		tab, err := RunTable(context.Background(), id, QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.FprintJSONL(&got); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile("testdata/tables_quick.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rows := func(b []byte) []map[string]any {
		var out []map[string]any
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			var row map[string]any
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			out = append(out, row)
		}
		return out
	}
	gotRows, wantRows := rows(got.Bytes()), rows(golden)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d rows, golden has %d", len(gotRows), len(wantRows))
	}
	for i, want := range wantRows {
		row := gotRows[i]
		for k := range row {
			if _, ok := want[k]; !ok {
				t.Errorf("row %d (%v %v): field %q is not in the golden", i, row["experiment"], row["set"], k)
			}
		}
		for k, v := range want {
			if row[k] != v {
				t.Errorf("row %d (%v %v): %s = %v, golden %v", i, want["experiment"], want["set"], k, row[k], v)
			}
		}
	}
}

// TestWallclockBaselineIsOneWorker: the wall-clock table has no serial
// row; each workload's ladder starts at one worker, which is its own
// "vs 1 worker" baseline, and every row counts the same pairs.
func TestWallclockBaselineIsOneWorker(t *testing.T) {
	tab, err := Wallclock(context.Background(), tinyConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range tab.Header {
		col[h] = i
	}
	first := map[string][]string{}
	for _, row := range tab.Rows {
		if slices.Contains(row, "serial") {
			t.Fatalf("serial row: %v", row)
		}
		wl := row[col["Workload"]]
		base, ok := first[wl]
		if !ok {
			first[wl], base = row, row
			if row[col["Workers"]] != "1" || row[col["vs 1 worker"]] != "1.00" {
				t.Fatalf("%s: the first row runs %s workers at %s vs 1 worker", wl, row[col["Workers"]], row[col["vs 1 worker"]])
			}
		}
		if row[col["Pairs"]] != base[col["Pairs"]] {
			t.Fatalf("%s: %s workers count %s pairs, 1 worker %s", wl, row[col["Workers"]], row[col["Pairs"]], base[col["Pairs"]])
		}
	}
	if len(first) != 2 || len(tab.Rows) != 4 {
		t.Fatalf("%d workloads in %d rows, want 2 in 4", len(first), len(tab.Rows))
	}
}
