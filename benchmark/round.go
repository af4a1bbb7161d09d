package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"unijoin/client"
)

// roundResult is one round of one workload: a fresh fleet, a warm-up,
// one measured window, the post-round checks, and the fleet's
// shutdown.
type roundResult struct {
	Workload string
	Traced   bool

	SetupS  float64 // first spawn → all healthy → warm-up answered
	WindowS float64 // length of the measured window

	// Ops counts primary ops answered correctly in the window;
	// Attempted and Failed cover everything the round asked of the
	// fleet (primary ops, appends, post-round checks).
	Ops       int
	Attempted int
	Failed    int
	Failures  []error // the first few, for the report

	LatencyMS   []float64 // correct primary ops, ascending
	ServerCPUMS float64   // fleet user+sys CPU over the window
	SelfCPUMS   float64   // benchmark process CPU over the window
	RSSPeakMB   float64
	KernelMS    float64 // fastest run of the fixed kernel around the window

	// routed_ingest only.
	AppendLatencyMS []float64
	AppendLateMS    []float64
	MixedPrefix     int64   // joins that saw shards at different prefixes
	Compactions     []int64 // per shard, since fleet start

	Warnings []string

	// Traced rounds only: the fleet's counters over the window and
	// every op with its server-side span tree.
	counters fleetCounters
	samples  []sample
	traces   []opTrace
}

// maxReportedFailures caps how many failure messages a round keeps.
const maxReportedFailures = 5

// fail records failed ops.
func (r *roundResult) fail(errs ...error) {
	r.Failed += len(errs)
	for _, err := range errs {
		if len(r.Failures) < maxReportedFailures {
			r.Failures = append(r.Failures, err)
		}
	}
}

// metric names of the end-to-end set.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_ops"
	mP50        = "latency_p50_ms"
	mP95        = "latency_p95_ms"
	mCPU        = "server_cpu_ms_per_op"
	mRSS        = "rss_peak_mb"
	mFailed     = "failed_share"
)

// endToEnd computes the round's end-to-end metrics by name.
func (r *roundResult) endToEnd() map[string]float64 {
	ops := float64(max(r.Ops, 1))
	return map[string]float64{
		mSetup:      r.SetupS,
		mThroughput: float64(r.Ops) / r.WindowS,
		mP50:        percentile(r.LatencyMS, 0.50),
		mP95:        percentile(r.LatencyMS, 0.95),
		mCPU:        r.ServerCPUMS / ops,
		mRSS:        r.RSSPeakMB,
		mFailed:     float64(r.Failed) / float64(max(r.Attempted, 1)),
	}
}

// tally turns a finished load into the round's op accounting: the
// primary ops of the window, the appender's batches, and the plan's
// post-round checks (which still need the fleet alive).
func (r *roundResult) tally(ctx context.Context, load *loadResult, plan *roundPlan) {
	r.WindowS = load.window.Seconds()
	for _, s := range load.samples {
		r.Attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("%s op: %w", r.Workload, s.err))
			continue
		}
		r.Ops++
		r.LatencyMS = append(r.LatencyMS, float64(s.latency)/1e6)
	}
	sort.Float64s(r.LatencyMS)
	if app := plan.appender; app != nil {
		r.Attempted += int(app.sent.Load())
		r.fail(app.failures...)
		r.AppendLatencyMS = sortedCopy(app.latencyMS)
		r.AppendLateMS = sortedCopy(app.lateMS)
		r.MixedPrefix = app.mixed.Load()
	}
	if plan.after != nil {
		n, failures := plan.after(ctx)
		r.Attempted += n
		r.fail(failures...)
	}
}

// runRound runs one round of w for the given measured duration.
func (e *env) runRound(ctx context.Context, w *workload, seq int, d time.Duration, traced bool) (res *roundResult, err error) {
	data, err := w.data(e)
	if err != nil {
		return nil, err
	}
	spec := fleetSpec{Loads: data.loads(), Region: data.region()}
	if w.routed {
		spec.Stripes = data.Stripes
	}
	res = &roundResult{Workload: w.Name, Traced: traced}

	spawn := time.Now()
	fl, err := startFleet(ctx, e.bins, filepath.Join(e.workDir, fmt.Sprintf("round-%03d-%s", seq, w.Name)), spec)
	if err != nil {
		return nil, err
	}
	// Stopping also reads the children's exit codes and logs: a crash
	// or an ERROR line during the round fails it, with the log tail.
	defer func() {
		if stopErr := fl.stop(); stopErr != nil && err == nil {
			res, err = nil, fmt.Errorf("%s round %d: %w", w.Name, seq, stopErr)
		}
	}()

	plan := w.plan(e, data, fl.front.url)
	idPrefix := ""
	if traced {
		idPrefix = fmt.Sprintf("bench-%s-%d", w.Name, seq)
	}
	var cpu0, self0 time.Duration
	var before fleetCounters
	var startErr error
	load, err := runLoad(ctx, plan, d, idPrefix, func() {
		res.SetupS = time.Since(spawn).Seconds()
		if traced {
			before, startErr = scrapeFleet(ctx, fl)
		}
		res.KernelMS = e.kernel.bestMS()
		self0 = selfCPU()
		var cpuErr error
		cpu0, cpuErr = fl.cpu()
		startErr = errors.Join(startErr, cpuErr)
	})
	if err = errors.Join(err, startErr); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", w.Name, seq, err)
	}
	cpu1, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	res.SelfCPUMS = float64(selfCPU()-self0) / 1e6
	res.ServerCPUMS = float64(cpu1-cpu0) / 1e6
	res.KernelMS = min(res.KernelMS, e.kernel.bestMS())
	if traced {
		after, err := scrapeFleet(ctx, fl)
		if err != nil {
			return nil, err
		}
		res.counters = after.sub(before)
		res.samples = load.samples
		res.traces = collectTraces(ctx, fl, w, load.samples)
	}
	res.tally(ctx, load, plan)
	if plan.appender != nil {
		for _, p := range fl.shards {
			sctx, cancel := context.WithTimeout(ctx, opTimeout)
			st, err := client.New(p.url, nil).Stats(sctx)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("%s stats: %w", p.name, err)
			}
			res.Compactions = append(res.Compactions, st.Compactions)
			if st.Compactions < minCompactions && !traced { // a traced round is half as long
				res.Warnings = append(res.Warnings, fmt.Sprintf("%s compacted %d times, want ≥ %d: the round is too short for the append rate",
					p.name, st.Compactions, minCompactions))
			}
		}
		if late := percentile(res.AppendLateMS, 0.95); late > 1000/appendPerSec {
			res.Warnings = append(res.Warnings, fmt.Sprintf("appender ran late: p95 %.1f ms behind a %d ms schedule", late, 1000/appendPerSec))
		}
	}
	if res.RSSPeakMB, err = fl.rssPeakMB(); err != nil {
		return nil, err
	}
	// An under-sampled round is flagged, not fatal: on a shared box a
	// slow minute would otherwise abort a whole run over a statistic.
	if !traced && len(load.samples) < minSamples {
		res.Warnings = append(res.Warnings, fmt.Sprintf("round %d collected %d primary ops in %.1f s, fewer than the %d that put ten samples beyond p95",
			seq, len(load.samples), res.WindowS, minSamples))
	}
	return res, nil
}
