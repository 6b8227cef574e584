package main

import (
	"slices"
	"time"
)

// endToEnd computes the metrics a user of the system sees, all but heap_mb;
// the names and units match BENCHMARK.json.
func endToEnd(fx *fixture, w *window, setupS []float64, mae float64) []metric {
	pct := func(name string, xs []float64, q float64) metric {
		return metric{name: name, unit: "ms", value: percentile(xs, q), samples: len(xs)}
	}
	return []metric{
		{name: "setup_s", unit: "s", value: median(setupS), samples: len(setupS)},
		{name: "ingest_reports_per_s", unit: "1/s", value: float64(w.ingest.work) / w.elapsed.Seconds(), samples: w.ingest.ok},
		pct("submit_p50_ms", w.ingest.latencyMS, 0.50),
		pct("submit_p99_ms", w.ingest.latencyMS, 0.99),
		pct("query_p50_ms", w.query.latencyMS, 0.50),
		pct("query_p99_ms", w.query.latencyMS, 0.99),
		pct("seal_p50_ms", w.seals.latencyMS, 0.50),
		pct("seal_p90_ms", w.seals.latencyMS, 0.90),
		{name: "mae", unit: "frac", value: mae, samples: len(fx.checks) * len(setupS)},
	}
}

// layerMetric maps a trace sample onto a per-layer metric.
type layerMetric struct {
	name, unit string
	// span names the span (or observation) sample; scale divides it into
	// the unit; mean reports the mean instead of the median.
	span  string
	scale float64
	mean  bool
}

// Scales from nanoseconds.
const (
	perNS = 1.0
	perUS = 1e3
	perMS = 1e6
	perS  = 1e9
)

// layerMetrics are the per-layer metrics, in the order BENCHMARK.json lists
// them. A layer the workload does not run reports 0 from 0 samples.
var layerMetrics = []layerMetric{
	{name: "dataset.gen_s", unit: "s", span: "dataset.gen", scale: perS},
	{name: "mech.client_report_ns", unit: "ns", span: "mech.client_report", scale: perNS},
	{name: "mech.decode_ns_per_report", unit: "ns", span: "mech.decode", scale: perNS},
	{name: "mech.submit_batch_ns_per_report", unit: "ns", span: "mech.submit_batch", scale: perNS},
	{name: "mech.estimate_ms", unit: "ms", span: "mech.estimate", scale: perMS},
	{name: "mech.state_export_us", unit: "us", span: "mech.state_export", scale: perUS},
	{name: "mech.diff_us", unit: "us", span: "mech.diff", scale: perUS},
	{name: "privmdr.reports_self_us", unit: "us", span: "privmdr.reports.self", scale: perUS},
	{name: "privmdr.query_self_us", unit: "us", span: "privmdr.query.self", scale: perUS},
	{name: "privmdr.refresh_ms", unit: "ms", span: "privmdr.refresh", scale: perMS},
	{name: "privmdr.refresh_self_ms", unit: "ms", span: "privmdr.refresh.self", scale: perMS},
	{name: "privmdr.refresh_swapped_ratio", unit: "ratio", span: "privmdr.refresh_swapped", scale: 1, mean: true},
	{name: "core.warm_ms", unit: "ms", span: "core.warm", scale: perMS},
	{name: "core.answer_us.l2", unit: "us", span: "core.answer.l2", scale: perUS},
	{name: "core.answer_us.l3", unit: "us", span: "core.answer.l3", scale: perUS},
	{name: "core.answer_us.l4", unit: "us", span: "core.answer.l4", scale: perUS},
	{name: "core.answer_us.l6", unit: "us", span: "core.answer.l6", scale: perUS},
	{name: "core.answer_batch_us", unit: "us", span: "core.answer_batch", scale: perUS},
	{name: "dist.push_ms", unit: "ms", span: "dist.push", scale: perMS},
	{name: "dist.push_bytes", unit: "bytes", span: "dist.push_bytes", scale: 1},
	{name: "dist.seal_ms", unit: "ms", span: "dist.seal", scale: perMS},
	{name: "dist.install_ms", unit: "ms", span: "dist.install", scale: perMS},
	{name: "dist.snapshot_bytes", unit: "bytes", span: "dist.snapshot_bytes", scale: 1},
	{name: "dist.fanout_ok_ratio", unit: "ratio", span: "dist.fanout_ok", scale: 1, mean: true},
	{name: "dist.push_skip_ratio", unit: "ratio", span: "dist.push_skip", scale: 1, mean: true},
}

// perLayer computes the traced run's metrics: every layer metric, the
// generator's own figures, and the tracing overhead.
func perLayer(tr *tracer, w *window, res *outcome, length time.Duration) []metric {
	samples := tr.layerSamples()
	tr.mu.Lock()
	for name, xs := range tr.obs {
		samples[name] = append(samples[name], xs...)
	}
	cost := tr.cost
	tr.mu.Unlock()

	var out []metric
	for _, lm := range layerMetrics {
		xs := samples[lm.span]
		m := metric{name: lm.name, unit: lm.unit, samples: len(xs)}
		switch {
		case len(xs) == 0:
		case lm.mean:
			var sum float64
			for _, x := range xs {
				sum += x
			}
			m.value = sum / float64(len(xs)) / lm.scale
		default:
			m.value = median(xs) / lm.scale
		}
		out = append(out, m)
	}
	late := slices.Concat(w.query.lateMS, w.ingest.lateMS)
	lateP99 := 0.0 // no open-loop stream: 0 from 0 samples, like any unexercised layer
	if len(late) > 0 {
		lateP99 = percentile(late, 0.99)
	}
	queries := w.query.work
	frames := w.ingest.ok + w.ingest.fail
	return append(out,
		metric{name: "gen.late_p99_ms", unit: "ms", value: lateP99, samples: len(late)},
		metric{name: "gen.frames", unit: "count", value: float64(frames), samples: frames},
		metric{name: "gen.reports_acked", unit: "count", value: float64(w.ingest.work), samples: w.ingest.ok},
		metric{name: "gen.epochs_sealed", unit: "count", value: float64(len(w.seals.latencyMS)), samples: len(w.seals.latencyMS)},
		metric{name: "gen.queries_sent", unit: "count", value: float64(queries), samples: w.query.ok + w.query.fail},
		metric{name: "failed_frac", unit: "ratio", value: float64(res.failed) / float64(max(res.attempted, 1)), samples: res.attempted},
		metric{name: "trace.overhead_pct", unit: "%", value: 100 * float64(cost) / (float64(length) * float64(procs())), samples: 1},
	)
}
