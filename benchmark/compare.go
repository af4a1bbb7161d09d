package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Comparing two result sets. One row per (workload, end-to-end
// metric): the baseline's value (its best round), the new value, the
// change relative to the baseline, the metric's bound, and a verdict:
//
//	unresolved  on either side the median round lies further from the
//	            best round than the bound — the best round was not
//	            confirmed by a second one, so the rounds cannot carry a
//	            verdict this fine — unless the two sides' rounds do not
//	            even overlap;
//	worse       otherwise, when the new value is worse than the
//	            baseline's by more than the bound;
//	ok          otherwise.
//
// failed_share is absolute: any failed op in the new set is worse.

// verdict is the outcome of one row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one (workload, metric) comparison.
type compareRow struct {
	Workload, Metric, Unit string
	Old, New               float64
	// Change is (new − old) ÷ old, signed so that positive is worse.
	Change float64
	// Spread is the wider of the two sides' distances between best and
	// median round, as a share of the best.
	Spread  float64
	Bound   float64
	Verdict verdict
}

// worseBy returns how much worse b is than a as a share of a, given
// the metric's direction (negative = better).
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	change := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		return -change
	}
	return change
}

// compareMetric judges one metric of one workload.
func compareMetric(workload string, def metricDef, old, cur metricValue) compareRow {
	row := compareRow{
		Workload: workload, Metric: def.Name, Unit: def.Unit,
		Old: old.Value, New: cur.Value, Bound: def.Bound, Verdict: verdictOK,
		Change: worseBy(def, old.Value, cur.Value),
		Spread: max(old.roundSpread(), cur.roundSpread()),
	}
	if def.Name == mFailed {
		row.Change = cur.Worst - old.Worst
		if cur.Worst > 0 {
			row.Verdict = verdictWorse
		}
		return row
	}
	// Rounds that do not overlap settle the direction whatever their
	// spread; overlapping rounds with a spread beyond the bound settle
	// nothing.
	separated := allNoWorse(def, old.Rounds, cur.Rounds) || allNoWorse(def, cur.Rounds, old.Rounds)
	switch {
	case row.Spread > def.Bound && !separated:
		row.Verdict = verdictUnresolved
	case row.Change > def.Bound:
		row.Verdict = verdictWorse
	}
	return row
}

// roundSpread is how far the median round lies from the best one, as a
// share of the best.
func (v metricValue) roundSpread() float64 {
	if v.Value == 0 {
		return 0
	}
	return math.Abs(v.Median-v.Value) / math.Abs(v.Value)
}

// allNoWorse reports whether every round of cur reads at least as well
// as every round of old (the two sides' rounds do not overlap).
func allNoWorse(def metricDef, old, cur []float64) bool {
	oldLo, oldHi := minMax(old)
	curLo, curHi := minMax(cur)
	if def.Better == "higher" {
		return curLo >= oldHi
	}
	return curHi <= oldLo
}

// compareSets compares every workload the two sets share.
func compareSets(old, cur *resultSet) []compareRow {
	var rows []compareRow
	for _, ow := range old.Workloads {
		cw := cur.workload(ow.Name)
		if cw == nil {
			continue
		}
		for _, def := range reportedDefs {
			rows = append(rows, compareMetric(ow.Name, def, ow.Metrics[def.Name], cw.Metrics[def.Name]))
		}
	}
	return rows
}

// printRows renders the comparison and returns how many rows are
// worse and how many unresolved.
func printRows(w io.Writer, rows []compareRow) (worse, unresolved int) {
	fmt.Fprintf(w, "%-14s %-22s %-6s %12s %12s %9s %9s %7s  %s\n",
		"workload", "metric", "unit", "old", "new", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-22s %-6s %12.4f %12.4f %+8.1f%% %8.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.Old, r.New, r.Change*100, r.Spread*100, r.Bound*100, r.Verdict)
		switch r.Verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Fprintln(w, "old and new are best rounds; change is relative to old, + is worse; spread is the wider side's distance from best to median round")
	return worse, unresolved
}

// compareFiles implements -compare old.json new.json.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs two files: old.json new.json")
	}
	old, err := readResultSet(args[0])
	if err != nil {
		return err
	}
	cur, err := readResultSet(args[1])
	if err != nil {
		return err
	}
	if old.Seed != cur.Seed || old.Rounds != cur.Rounds || old.SecondsPerRound != cur.SecondsPerRound {
		fmt.Fprintf(w, "warning: the sets were run with different settings (seed %d/%d, rounds %d/%d, %.1f/%.1f s per round)\n",
			old.Seed, cur.Seed, old.Rounds, cur.Rounds, old.SecondsPerRound, cur.SecondsPerRound)
	}
	worse, unresolved := printRows(w, compareSets(old, cur))
	if unresolved > 0 {
		fmt.Fprintf(w, "%d row(s) unresolved: the rounds are too far apart to carry a verdict; repeat the runs, alternating the two sides\n", unresolved)
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) got worse by more than their bound", worse)
	}
	return nil
}

// runSelfcheck implements -selfcheck: two full sets of the same code,
// which must agree within the benchmark's own bounds in both
// directions. The observed differences are the evidence the bounds in
// BENCHMARK.json rest on.
func runSelfcheck(ctx context.Context, cfg config) error {
	var sets [2]*resultSet
	for i := range sets {
		fmt.Printf("=== selfcheck set %d of 2 ===\n", i+1)
		set, err := runAndReport(ctx, cfg)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	fmt.Println("\n=== selfcheck: set 2 against set 1 ===")
	worse, unresolved := printRows(os.Stdout, compareSets(sets[0], sets[1]))
	fmt.Println("\n=== selfcheck: set 1 against set 2 ===")
	w2, u2 := printRows(os.Stdout, compareSets(sets[1], sets[0]))
	if worse += w2; worse > 0 {
		return fmt.Errorf("selfcheck: two sets of the same code disagree beyond the bound on %d row(s); the benchmark is too noisy for its bounds", worse)
	}
	fmt.Printf("selfcheck passed: no metric of either set is worse than the other's by more than its bound (%d of %d rows unresolved)\n",
		unresolved+u2, 2*len(compareSets(sets[0], sets[1])))
	return nil
}
