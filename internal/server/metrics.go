package server

import (
	"unijoin/internal/ingest"
	"unijoin/internal/obs"
)

// metrics is the server's own instrumentation: the query and ingest
// counters behind GET /v1/stats plus the join histograms exposed on
// GET /metrics. The request families are httpapi.Front's, registered
// on the same obs.Registry, so the stats endpoint and the Prometheus
// exposition can never disagree.
type metrics struct {
	reg *obs.Registry

	joins           *obs.Counter
	windows         *obs.Counter
	pairsStreamed   *obs.Counter
	recordsStreamed *obs.Counter

	// Ingestion families: appends accepted, records written per
	// relation, append wall time, compactions triggered, and the
	// per-relation delta-log depth (distance to the next compaction).
	appends       *obs.Counter
	ingestRecords *obs.CounterVec // sj_ingest_records_total{relation}
	ingestLatency *obs.Histogram  // sj_ingest_seconds
	compactions   *obs.Counter
	deltaRecords  *obs.GaugeVec // sj_delta_records{relation}

	// joinLatency is per-algorithm end-to-end join time; phase splits
	// it into the paper's phases (partition/sweep/stream) across all
	// algorithms.
	joinLatency *obs.HistogramVec
	phase       *obs.HistogramVec

	// Input preparation paid by served joins, the two series of
	// sj_prepared_builds_total{kind}: merge (an appended epoch's base
	// and delta runs were merged) and stripes (an unwindowed join
	// partitioned the runs into the layout it left on the left version).
	// A relation's run is built at load, so a join that finds both runs
	// merged and the stripes of its version pair laid out counts
	// nothing.
	preparedMerge   *obs.Counter
	preparedStripes *obs.Counter
}

// joinBuckets widens obs.DefBuckets upward: a cold PBSM join of two
// large relations can run for minutes while an ST probe finishes in
// microseconds, and both must land inside the histogram's range.
var joinBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// newMetrics registers the server's metric families on reg (a nil reg
// gets a fresh registry — the embedded-server case with no scrape
// endpoint wired up).
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	prepared := reg.CounterVec("sj_prepared_builds_total",
		"Input preparation paid by joins, by kind: merge (merge an appended epoch's delta into its base run), stripes (partition a version pair's runs into the stripe layout later joins of the pair reuse).",
		"kind")
	return &metrics{
		reg:             reg,
		preparedMerge:   prepared.With("merge"),
		preparedStripes: prepared.With("stripes"),
		joins: reg.Counter("sj_joins_total",
			"Join requests whose body decoded, counted before validation."),
		windows: reg.Counter("sj_windows_total",
			"Window requests whose body decoded, counted before validation."),
		pairsStreamed: reg.Counter("sj_pairs_streamed_total",
			"Result pairs written to join response streams."),
		recordsStreamed: reg.Counter("sj_records_streamed_total",
			"Records written to window response streams."),
		appends: reg.Counter("sj_appends_total",
			"Append requests whose body parsed, counted before validation."),
		ingestRecords: reg.CounterVec("sj_ingest_records_total",
			"Records appended to relations, by relation.",
			"relation"),
		ingestLatency: reg.Histogram("sj_ingest_seconds",
			"Append request execution time in seconds, including any compaction it triggers.",
			nil),
		compactions: reg.Counter("sj_compactions_total",
			"Delta-log compactions triggered by appends or requested explicitly."),
		deltaRecords: reg.GaugeVec("sj_delta_records",
			"Records in a relation's delta log past its packed base, by relation.",
			"relation"),
		joinLatency: reg.HistogramVec("sj_join_seconds",
			"Successful join execution time in seconds, by algorithm.",
			joinBuckets, "algorithm"),
		phase: reg.HistogramVec("sj_join_phase_seconds",
			"Join phase wall time in seconds: partition (input preparation), sweep (join kernel), stream (response writing).",
			joinBuckets, "phase"),
	}
}

// observeJoin records one successful join: the per-algorithm latency
// histogram, the per-phase breakdown, and the input preparation it
// paid for — the prepared-run merges, and whether it laid out the
// stripes it left for the joins after it on the same two versions.
func (m *metrics) observeJoin(algorithm string, elapsedSec float64, t phaseSeconds, prepared [2]ingest.Build, stripes bool) {
	m.joinLatency.With(algorithm).Observe(elapsedSec)
	m.phase.With("partition").Observe(t.partition)
	m.phase.With("sweep").Observe(t.sweep)
	m.phase.With("stream").Observe(t.stream)
	for _, b := range prepared {
		if b == ingest.BuildMerge {
			m.preparedMerge.Inc()
		}
	}
	if stripes {
		m.preparedStripes.Inc()
	}
}

// phaseSeconds carries one join's phase wall times, in seconds.
type phaseSeconds struct {
	partition, sweep, stream float64
}

// observeIngest records one successful append against a relation:
// records written, wall time, compactions, and the relation's
// delta-log depth afterwards.
func (m *metrics) observeIngest(relation string, appended int64, elapsedSec float64, compacted bool, delta int64) {
	m.ingestRecords.With(relation).Add(appended)
	m.ingestLatency.Observe(elapsedSec)
	if compacted {
		m.compactions.Inc()
	}
	m.deltaRecords.With(relation).Set(float64(delta))
}
