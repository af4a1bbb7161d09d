package main

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions; a unit
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric
	// may get worse before -compare calls it a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
	// Layer and Moves document a per-layer metric: the package it
	// belongs to and the end-to-end metric and workload it should move.
	Layer, Moves string
}

// endToEndDefs are the metrics a caller of the fleet sees. Every one
// is defined on every workload. The bounds are what the shared 2-core
// box supports (see README "Bounds"): ten runs of identical code, each
// reporting its best round, spread 4–19 % apart in a quiet hour and
// 20–28 % in a noisy one, so every timing gets the widest bound the
// contract allows; only memory is steadier.
var endToEndDefs = []metricDef{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mThroughput, Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: mP50, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mP95, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mCPU, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mRSS, Unit: "MB", Better: "lower", Bound: 0.15},
}

// failedShareDef is reported beside the end-to-end set but compared
// absolutely: any failed op is a regression. It is not listed in
// BENCHMARK.json, whose relative bounds need metrics that are never
// zero; there the result line's failed/attempted carries it.
var failedShareDef = metricDef{Name: mFailed, Unit: "ratio", Better: "lower"}

// Workload shorthands for the Moves column.
const (
	onDirect = "direct_count"
	onStream = "routed_stream"
	onWindow = "routed_window"
	onIngest = "routed_ingest"
)

// perLayerDefs are the layer budget: probes (timed in the benchmark
// process around each package's public entry points) and fleet
// metrics (read from the traced round of the workload being run).
var perLayerDefs = []metricDef{
	// stream / iosim
	{Name: "stream.read_all_ms", Unit: "ms", Better: "lower", Layer: "stream", Moves: onDirect + " latency_p50_ms, throughput_ops"},
	{Name: "stream.read_all_c2_ms", Unit: "ms", Better: "lower", Layer: "stream", Moves: onDirect + " throughput_ops (store mutex wait)"},
	{Name: "iosim.pages_read_per_join", Unit: "count", Better: "lower", Layer: "iosim", Moves: "exact; 0 on the serving path once versions are prepared per epoch"},
	// sweep
	{Name: "sweep.sort_ms", Unit: "ms", Better: "lower", Layer: "sweep", Moves: onDirect + " latency_p50_ms"},
	{Name: "sweep.join_ms", Unit: "ms", Better: "lower", Layer: "sweep", Moves: onDirect + " latency_p50_ms"},
	{Name: "sweep.comparisons_per_pair", Unit: "count", Better: "lower", Layer: "sweep", Moves: onDirect + " latency_p50_ms"},
	// parallel
	{Name: "parallel.partition_ms", Unit: "ms", Better: "lower", Layer: "parallel", Moves: onDirect + ", " + onIngest + " latency_p50_ms"},
	{Name: "parallel.sweep_ms", Unit: "ms", Better: "lower", Layer: "parallel", Moves: onDirect + ", " + onIngest + " latency_p50_ms"},
	{Name: "parallel.join_ms", Unit: "ms", Better: "lower", Layer: "parallel", Moves: onDirect + ", " + onIngest + " latency_p50_ms"},
	{Name: "parallel.local_fraction", Unit: "ratio", Better: "higher", Layer: "parallel", Moves: onDirect + " latency_p50_ms (untested pairs)"},
	{Name: "parallel.replication", Unit: "ratio", Better: "lower", Layer: "parallel", Moves: onDirect + " latency_p50_ms (records swept twice)"},
	// core
	{Name: "core.pq_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: onStream + " latency_p50_ms"},
	{Name: "core.pq_pages", Unit: "count", Better: "lower", Layer: "core", Moves: "exact; the paper's page-access count"},
	// unijoin
	{Name: "unijoin.query_parallel_ms", Unit: "ms", Better: "lower", Layer: "unijoin", Moves: onDirect + " latency_p50_ms"},
	{Name: "unijoin.query_parallel_emit_ms", Unit: "ms", Better: "lower", Layer: "unijoin", Moves: onIngest + " latency_p50_ms (shards count through the emit path)"},
	{Name: "unijoin.window_query_us", Unit: "us", Better: "lower", Layer: "unijoin", Moves: onWindow + " latency_p50_ms"},
	{Name: "unijoin.budget_gap_share", Unit: "ratio", Better: "lower", Layer: "unijoin", Moves: "layers sum to the query within 0.10"},
	// ingest
	{Name: "ingest.append_batch_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: onIngest + " server_cpu_ms_per_op"},
	{Name: "ingest.compact_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: onIngest + " latency_p95_ms"},
	{Name: "ingest.first_query_after_append_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: onIngest + " latency_p95_ms"},
	// server
	{Name: "server.join_count_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: onDirect + " latency_p50_ms"},
	{Name: "server.join_count_striped_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: onIngest + " latency_p50_ms"},
	{Name: "server.ownership_ns_per_pair", Unit: "ns", Better: "lower", Layer: "server", Moves: onIngest + ", " + onStream + " latency_p50_ms; not " + onDirect},
	{Name: "server.xlo_rebuild_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: onIngest + " latency_p95_ms"},
	// httpapi
	{Name: "httpapi.frames_ns_per_pair", Unit: "ns", Better: "lower", Layer: "httpapi", Moves: onStream + " latency_p50_ms"},
	{Name: "httpapi.ndjson_ns_per_pair", Unit: "ns", Better: "lower", Layer: "httpapi", Moves: "NDJSON joins (no workload; guard for the pipeline collapse)"},
	{Name: "httpapi.frames_ns_per_record", Unit: "ns", Better: "lower", Layer: "httpapi", Moves: "framed windows (no workload; guard)"},
	{Name: "httpapi.ndjson_ns_per_record", Unit: "ns", Better: "lower", Layer: "httpapi", Moves: onWindow + " latency_p50_ms"},
	// wire
	{Name: "wire.encode_ns_per_pair", Unit: "ns", Better: "lower", Layer: "wire", Moves: onStream + " latency_p50_ms, server_cpu_ms_per_op"},
	{Name: "wire.decode_ns_per_pair", Unit: "ns", Better: "lower", Layer: "wire", Moves: onStream + " latency_p50_ms"},
	{Name: "wire.scan_ns_per_frame", Unit: "ns", Better: "lower", Layer: "wire", Moves: onStream + " server_cpu_ms_per_op (router)"},
	{Name: "wire.bytes_per_pair", Unit: "B", Better: "lower", Layer: "wire", Moves: onStream + " latency_p50_ms"},
	// client
	{Name: "client.frames_ns_per_pair", Unit: "ns", Better: "lower", Layer: "client", Moves: onStream + " latency_p50_ms"},
	{Name: "client.ndjson_ns_per_pair", Unit: "ns", Better: "lower", Layer: "client", Moves: "NDJSON joins (no workload; guard)"},
	// shard
	{Name: "shard.relay_ns_per_pair", Unit: "ns", Better: "lower", Layer: "shard", Moves: onStream + " latency_p50_ms"},
	{Name: "shard.scatter_floor_us", Unit: "us", Better: "lower", Layer: "shard", Moves: onWindow + " latency_p50_ms, throughput_ops"},
	// fleet, from the traced round
	{Name: "trace.server_partition_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "this workload's latency_p50_ms"},
	{Name: "trace.server_sweep_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "this workload's latency_p50_ms"},
	{Name: "trace.server_stream_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "this workload's latency_p50_ms"},
	{Name: "trace.scatter_skew", Unit: "ratio", Better: "lower", Layer: "fleet", Moves: "routed latency_p95_ms (slowest shard sets the time)"},
	{Name: "trace.router_overhead_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "routed latency_p50_ms"},
	{Name: "trace.client_overhead_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "this workload's latency_p50_ms"},
	{Name: "shard.scatter_calls_per_op", Unit: "count", Better: "lower", Layer: "fleet", Moves: onWindow + " throughput_ops (window pruning)"},
	{Name: "server.pairs_streamed_per_op", Unit: "count", Better: "lower", Layer: "fleet", Moves: "work count for ratios"},
	{Name: "server.frame_bytes_per_op", Unit: "B", Better: "lower", Layer: "fleet", Moves: "work count for ratios"},
	{Name: "ingest.compactions_per_round", Unit: "count", Better: "lower", Layer: "fleet", Moves: onIngest + " latency_p95_ms"},
	{Name: "ingest.append_p50_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: onIngest + " server_cpu_ms_per_op"},
	{Name: "ingest.append_late_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "generator kept its schedule when below one period"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "fleet", Moves: "must stay below 0.02"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower", Layer: "harness", Moves: "sanity: the generator is being measured when large"},
	{Name: "gen.kernel_ms", Unit: "ms", Better: "lower", Layer: "harness", Moves: "sanity: the box, not the program, was slow when this exceeds its quiet value"},
}

// Thresholds that flag (not fail) a per-layer finding.
const (
	budgetGapFlag     = 0.10
	traceOverheadFlag = 0.02
)

// reportedDefs is the end-to-end set plus failed_share, in report order.
var reportedDefs = append(append([]metricDef(nil), endToEndDefs...), failedShareDef)
