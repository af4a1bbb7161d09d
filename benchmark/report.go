package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricValue is one end-to-end metric of one workload. The reported
// value is the **best round** — lowest for a lower-is-better metric,
// highest otherwise. On a shared box interference is one-sided: a
// noisy neighbour only ever slows the fleet down, seconds at a time,
// so the best of three rounds is the estimate least contaminated by
// it. Measured on the box the bounds come from, ten runs of identical
// code spread 3 % apart by their best round and 11 % by their median
// round. The median and the worst round are kept beside it: the gap
// between best and median says how far to trust the best.
type metricValue struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Worst  float64   `json:"worst"`
	Rounds []float64 `json:"rounds"`
}

// newMetricValue summarises the rounds of one metric.
func newMetricValue(def metricDef, rounds []float64) metricValue {
	lo, hi := minMax(rounds)
	v := metricValue{Unit: def.Unit, Value: lo, Median: median(rounds), Worst: hi, Rounds: rounds}
	if def.Better == "higher" {
		v.Value, v.Worst = hi, lo
	}
	return v
}

// workloadResult is everything reported for one workload.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Samples is the number of correct primary ops per round.
	Samples   []int                  `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// PerLayer is set by traced runs; TracedOps is how many ops of the
	// traced round carried a trace (as many again did not).
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	TracedOps int                `json:"traced_ops,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	// MixedPrefixJoins counts routed_ingest joins whose answer summed
	// shards pinned at different append prefixes: correct per shard,
	// but not a single-process snapshot.
	MixedPrefixJoins int64 `json:"mixed_prefix_joins,omitempty"`
}

// resultSet is one full run, the unit -json writes and -compare reads.
type resultSet struct {
	Seed            int64             `json:"seed"`
	Rounds          int               `json:"rounds"`
	SecondsPerRound float64           `json:"seconds_per_round"`
	NProc           int               `json:"nproc"`
	GoVersion       string            `json:"go_version"`
	Workloads       []*workloadResult `json:"workloads"`
	SelfTimes       []selfTime        `json:"self_times,omitempty"`
}

func newResultSet(cfg config) *resultSet {
	return &resultSet{
		Seed: cfg.Seed, Rounds: cfg.Rounds, SecondsPerRound: cfg.Seconds / float64(cfg.Rounds),
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
}

// workload finds a workload's result by name.
func (s *resultSet) workload(name string) *workloadResult {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// add folds a workload's untraced rounds into the set.
func (s *resultSet) add(w *workload, rounds []*roundResult) *workloadResult {
	wr := &workloadResult{Name: w.Name, Why: w.Why, Metrics: make(map[string]metricValue)}
	perRound := make(map[string][]float64)
	for _, r := range rounds {
		wr.Samples = append(wr.Samples, r.Ops)
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.MixedPrefixJoins += r.MixedPrefix
		wr.Warnings = append(wr.Warnings, r.Warnings...)
		for _, err := range r.Failures {
			wr.Failures = append(wr.Failures, err.Error())
		}
		for name, v := range r.endToEnd() {
			perRound[name] = append(perRound[name], v)
		}
	}
	for _, def := range reportedDefs {
		wr.Metrics[def.Name] = newMetricValue(def, perRound[def.Name])
	}
	s.Workloads = append(s.Workloads, wr)
	return wr
}

// addPerLayer fills the per-layer metrics of a traced run: the probe
// values (the same for every workload of the run) and what the traced
// round tr says about this workload's fleet (endpoint names the
// primary op in the shards' request counters), next to the untraced
// rounds it is compared with.
func (wr *workloadResult) addPerLayer(probed map[string]float64, endpoint string, tr *roundResult, untraced []*roundResult) {
	m := make(map[string]float64, len(perLayerDefs))
	for name, v := range probed {
		m[name] = v
	}
	var partition, sweep, stream, skew, router, clientSide []float64
	for _, t := range tr.traces {
		st := t.analyze()
		partition = append(partition, st.partition)
		sweep = append(sweep, st.sweep)
		stream = append(stream, st.stream)
		skew = append(skew, st.skew)
		router = append(router, st.routerOverhead)
		clientSide = append(clientSide, st.clientOverhead)
	}
	m["trace.server_partition_ms"] = median(partition)
	m["trace.server_sweep_ms"] = median(sweep)
	m["trace.server_stream_ms"] = median(stream)
	m["trace.scatter_skew"] = median(skew)
	m["trace.router_overhead_ms"] = median(router)
	m["trace.client_overhead_ms"] = median(clientSide)

	ops := float64(max(len(tr.samples), 1))
	m["shard.scatter_calls_per_op"] = tr.counters.Requests[endpoint] / ops
	m["server.pairs_streamed_per_op"] = tr.counters.PairsStreamed / ops
	m["server.frame_bytes_per_op"] = tr.counters.FrameBytes / ops
	var compactions int64
	for _, c := range tr.Compactions {
		compactions += c
	}
	m["ingest.compactions_per_round"] = float64(compactions)
	m["ingest.append_p50_ms"] = percentile(tr.AppendLatencyMS, 0.50)
	m["ingest.append_late_ms"] = percentile(tr.AppendLateMS, 0.95)

	var genShare, kernel []float64
	for _, r := range untraced {
		genShare = append(genShare, r.SelfCPUMS/(r.SelfCPUMS+r.ServerCPUMS))
		kernel = append(kernel, r.KernelMS)
	}
	m["gen.cpu_share"] = median(genShare)
	m["gen.kernel_ms"], _ = minMax(kernel)
	// Every second op of the traced window was traced; comparing the
	// two halves of one window keeps the box's drift out of a budget
	// that is two percent wide.
	var with, without []float64
	for _, s := range tr.samples {
		switch {
		case s.err != nil:
		case s.traced:
			with = append(with, float64(s.latency)/1e6)
		default:
			without = append(without, float64(s.latency)/1e6)
		}
	}
	if base := median(without); base > 0 {
		m["trace.overhead_share"] = (median(with) - base) / base
	}
	wr.TracedOps = len(with)
	wr.PerLayer = m
	wr.Warnings = append(wr.Warnings, tr.Warnings...)
}

// printLine prints one round as it completes (round 0 = the traced one).
func (r *roundResult) printLine(w io.Writer, round int) {
	label := fmt.Sprintf("round %d", round)
	if r.Traced {
		label = "traced "
	}
	m := r.endToEnd()
	fmt.Fprintf(w, "  %-14s %s  setup %.2f s  %6d ops in %5.2f s = %8.1f ops/s  p50 %8.3f ms  p95 %8.3f ms  cpu %7.3f ms/op  rss %6.1f MB  failed %d/%d  kernel %.2f ms\n",
		r.Workload, label, m[mSetup], r.Ops, r.WindowS, m[mThroughput], m[mP50], m[mP95], m[mCPU], m[mRSS], r.Failed, r.Attempted, r.KernelMS)
	for _, err := range r.Failures {
		fmt.Fprintf(w, "    FAILED: %v\n", err)
	}
}

// print renders the whole set: per workload every end-to-end metric
// by name with unit, best, median and worst round, then — after a traced
// run — the per-layer budget and the span self times.
func (s *resultSet) print(w io.Writer) {
	fmt.Fprintf(w, "\nseed %d, %d rounds × %.1f s per workload, closed loop, %d clients, nproc %d\n",
		s.Seed, s.Rounds, s.SecondsPerRound, loadClients, s.NProc)
	for _, wr := range s.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", wr.Name, wr.Why)
		fmt.Fprintf(w, "  primary ops per round %v; failed %d of %d attempted\n", wr.Samples, wr.Failed, wr.Attempted)
		fmt.Fprintf(w, "  %-24s %-6s %12s %12s %12s   bound\n", "metric", "unit", "best round", "median", "worst")
		for _, def := range reportedDefs {
			v := wr.Metrics[def.Name]
			bound := fmt.Sprintf("%.0f %%", def.Bound*100)
			if def.Name == mFailed {
				bound = "0 (absolute)"
			}
			fmt.Fprintf(w, "  %-24s %-6s %12.4f %12.4f %12.4f   %s\n", def.Name, v.Unit, v.Value, v.Median, v.Worst, bound)
		}
		if wr.MixedPrefixJoins > 0 {
			fmt.Fprintf(w, "  note: %d joins summed shards pinned at different append prefixes (correct per shard, not one snapshot)\n", wr.MixedPrefixJoins)
		}
		for _, msg := range wr.Warnings {
			fmt.Fprintf(w, "  WARNING: %s\n", msg)
		}
		for _, msg := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", msg)
		}
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "  per-layer budget (probes: median of %d calls; fleet: traced round)\n", probeReps)
		fmt.Fprintf(w, "  %-9s %-36s %-6s %14s   should move\n", "layer", "metric", "unit", "value")
		for _, def := range perLayerDefs {
			v := wr.PerLayer[def.Name]
			flag := ""
			switch {
			case def.Name == "unijoin.budget_gap_share" && math.Abs(v) > budgetGapFlag:
				flag = fmt.Sprintf("  FLAG: the layers miss the query by %.0f %% (> %.0f %%)", v*100, budgetGapFlag*100)
			case def.Name == "trace.overhead_share" && v > traceOverheadFlag:
				flag = fmt.Sprintf("  FLAG: tracing costs %.1f %% of p50 (> %.0f %%), from the medians of %d traced and as many untraced ops",
					v*100, traceOverheadFlag*100, wr.TracedOps)
			}
			fmt.Fprintf(w, "  %-9s %-36s %-6s %14.4f   %s%s\n", def.Layer, def.Name, def.Unit, v, def.Moves, flag)
		}
	}
	if len(s.SelfTimes) > 0 {
		fmt.Fprintf(w, "\nspan self time (duration minus what child spans cover), by workload\n")
		fmt.Fprintf(w, "  %-14s %-34s %8s %12s %12s\n", "workload", "span", "count", "total ms", "self ms")
		for _, st := range s.SelfTimes {
			if strings.HasPrefix(st.Name, "probe.") {
				continue // a probe's parent span only groups its calls
			}
			fmt.Fprintf(w, "  %-14s %-34s %8d %12.2f %12.2f\n", workloadOrProbe(st.Workload), st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
	}
}

// workloadOrProbe labels a span's workload column; probe spans have
// no workload.
func workloadOrProbe(s string) string {
	if s == "" {
		return "(probe)"
	}
	return s
}

// writeFile saves the set as JSON.
func (s *resultSet) writeFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResultSet loads a set written by writeFile.
func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// driverValue is one metric in the driver's result object.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the acceptance driver's result object for one
// workload as the last line of output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (s *resultSet) printDriverLine(w io.Writer, name string, traced bool) error {
	wr := s.workload(name)
	metrics := make(map[string]driverValue)
	if traced {
		for _, def := range perLayerDefs {
			metrics[def.Name] = driverValue{wr.PerLayer[def.Name], def.Unit}
		}
	} else {
		for _, def := range endToEndDefs {
			metrics[def.Name] = driverValue{wr.Metrics[def.Name].Value, def.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
