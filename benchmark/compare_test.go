package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// setWith builds a one-workload result set whose metrics all read
// `base` in every round, except the overrides.
func setWith(overrides map[string][]float64) *resultSet {
	wr := &workloadResult{Name: onDirect, Metrics: make(map[string]metricValue)}
	for _, def := range reportedDefs {
		rounds := []float64{100, 100, 100}
		if def.Name == mFailed {
			rounds = []float64{0, 0, 0}
		}
		if o, ok := overrides[def.Name]; ok {
			rounds = o
		}
		wr.Metrics[def.Name] = newMetricValue(def, rounds)
	}
	return &resultSet{Rounds: 3, Workloads: []*workloadResult{wr}}
}

// verdictOf returns the verdict of one metric in a comparison.
func verdictOf(t *testing.T, rows []compareRow, metric string) verdict {
	t.Helper()
	for _, r := range rows {
		if r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	base := setWith(nil)
	// Changes are placed relative to each metric's own bound, so the
	// cases hold whatever the bounds are tuned to.
	bound := func(metric string) float64 {
		for _, def := range endToEndDefs {
			if def.Name == metric {
				return 100 * def.Bound
			}
		}
		t.Fatalf("no bound for %s", metric)
		return 0
	}
	flat := func(v float64) []float64 { return []float64{v, v, v} }
	cases := []struct {
		name   string
		metric string
		rounds []float64
		want   verdict
	}{
		{"identical", mP50, flat(100), verdictOK},
		{"latency within bound", mP50, flat(100 + 0.6*bound(mP50)), verdictOK},
		{"latency beyond bound", mP50, flat(100 + 1.4*bound(mP50)), verdictWorse},
		{"latency better", mP50, flat(60), verdictOK},
		{"throughput is higher-better: a drop is worse", mThroughput, flat(100 - 1.4*bound(mThroughput)), verdictWorse},
		{"throughput is higher-better: a rise is ok", mThroughput, flat(100 + 1.4*bound(mThroughput)), verdictOK},
		{"best round not confirmed by a second, rounds overlap", mP50, []float64{95, 150, 160}, verdictUnresolved},
		{"best round confirmed, one slow round", mP50, []float64{101, 102, 160}, verdictOK},
		{"wide spread but every round better", mP50, []float64{40, 60, 90}, verdictOK},
		{"wide spread but every round worse, beyond the bound", mP50, []float64{100 + 1.4*bound(mP50), 190, 200}, verdictWorse},
		{"one failed op", mFailed, []float64{0, 0.001, 0}, verdictWorse},
	}
	for _, c := range cases {
		rows := compareSets(base, setWith(map[string][]float64{c.metric: c.rounds}))
		if got := verdictOf(t, rows, c.metric); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestOneLuckyRoundIsUnresolvedNotWorse replays a row -selfcheck met
// on the shared box: one side caught a single exceptionally quiet
// round, so the best rounds differ by more than the bound although
// the rounds overlap. That settles nothing.
func TestOneLuckyRoundIsUnresolvedNotWorse(t *testing.T) {
	lucky := setWith(map[string][]float64{mP95: {6.447, 4.718, 6.3}})
	plain := setWith(map[string][]float64{mP95: {7.019, 6.240, 6.865}})
	if got := verdictOf(t, compareSets(lucky, plain), mP95); got != verdictUnresolved {
		t.Errorf("plain against lucky: verdict %q, want %q", got, verdictUnresolved)
	}
	if got := verdictOf(t, compareSets(plain, lucky), mP95); got != verdictUnresolved {
		t.Errorf("lucky against plain: verdict %q, want %q", got, verdictUnresolved)
	}
}

func TestCompareFilesExitsNonZeroOnlyWhenWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		path := filepath.Join(dir, name)
		if err := s.writeFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", setWith(nil))
	same := write("same.json", setWith(map[string][]float64{mP50: {101, 102, 103}}))
	worse := write("worse.json", setWith(map[string][]float64{mCPU: {150, 150, 150}}))

	var out bytes.Buffer
	if err := compareFiles(&out, []string{old, same}); err != nil {
		t.Errorf("comparable sets reported as a regression: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, []string{old, worse}); err == nil {
		t.Errorf("a 50 %% CPU regression passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), string(verdictWorse)) || !strings.Contains(out.String(), mCPU) {
		t.Errorf("the report does not name the regressed metric:\n%s", out.String())
	}
	if err := compareFiles(&out, []string{old}); err == nil {
		t.Errorf("-compare with one file did not fail")
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the repository-root
// BENCHMARK.json in step with the metric and workload tables compiled
// into the benchmark.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d compiled in", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d compiled in", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			if g := got[i]; g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better || g.Bound != def.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %s %s %s bound %v", kind, i, g, def.Name, def.Unit, def.Better, def.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
