package main

import (
	"fmt"
	"slices"
	"strings"
)

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's contract: BENCHMARK.json declares the same names, every
// workload emits every end-to-end metric with --trace 0 and every
// per-layer metric with --trace 1, and a run that misses one fails.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the library or the daemon sees,
// measured with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"update_rate", "changes/s"},
	{"apply_p50_us", "us"},
	{"ack_p50_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"adjustments_per_update", "count"},
	{"mem_bytes_per_node", "B"},
}

// printedOnly are end-to-end metrics that every untraced run measures and
// prints for people, but that are not in the result line or in
// BENCHMARK.json: over ten seeds on a shared 2-vCPU VM their spread
// exceeded the largest bound a gated metric may have (see NOTES.md).
var printedOnly = []metricSpec{
	{"apply_p99_us", "us"},
	{"ack_p99_ms", "ms"},
	{"visible_p99_ms", "ms"},
}

// perLayer are the traced run's metrics, one or more per layer; NOTES.md
// lists the end-to-end metric each should move.
var perLayer = []metricSpec{
	{"workload.gen_ns_per_change", "ns"},
	{"trace.decode_ns_per_change", "ns"},
	{"trace.encode_ns_per_change", "ns"},
	{"trace.bytes_per_change", "B"},
	{"core.apply_ns_per_change", "ns"},
	{"core.alloc_bytes_per_change", "B"},
	{"core.cascade_steps", "count"},
	{"core.touched_slots", "count"},
	{"core.flips", "count"},
	{"core.influence", "count"},
	{"core.bulk_load_penalty", "ratio"},
	{"shard.cross_shard", "count"},
	{"shard.steals", "count"},
	{"shard.handoffs", "count"},
	{"shard.vs_template_ratio", "ratio"},
	{"shard.alloc_bytes_per_change", "B"},
	{"graph.bytes_per_node", "B"},
	{"graph.spill_utilization", "ratio"},
	{"graph.total_bytes", "B"},
	{"server.ingest_ms_per_batch", "ms"},
	{"server.ingest_nowal_ms_per_batch", "ms"},
	{"server.wal_bytes_per_change", "B"},
	{"server.fsyncs_per_batch", "count"},
	{"server.snapshot_ms", "ms"},
	{"server.snapshots", "count"},
	{"server.events_per_change", "count"},
	{"server.delivery_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.read_inproc_ms", "ms"},
	{"dynmisd.cpu_us_per_change", "us"},
	{"dynmisd.peak_rss_mb", "MB"},
	{"harness.generator_lag_p99_ms", "ms"},
	{"harness.trace_overhead", "ratio"},
}

// selectMetrics keeps exactly the metrics of the run's kind and checks
// that each is present with its declared unit. An untraced run must also
// have measured every printedOnly metric.
func selectMetrics(all map[string]metric, traced bool) (map[string]metric, error) {
	specs, printed := endToEnd, printedOnly
	if traced {
		specs, printed = perLayer, nil
	}
	out := make(map[string]metric, len(specs))
	var missing []string
	for i, s := range slices.Concat(specs, printed) {
		m, ok := all[s.name]
		switch {
		case !ok:
			missing = append(missing, s.name)
		case m.Unit != s.unit:
			return nil, fmt.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
		case i < len(specs):
			out[s.name] = m
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
