package main

// metric is one named number the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds; TestBenchmarkJSONMatchesRegistry keeps the two in step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	// Per-layer metrics carry none.
	Bound float64 `json:"bound"`
}

// endToEnd are the gated metrics. Every workload reports all three; what
// "the operation" is on each workload is fixed in the workload's
// scenario and tabulated in README.md.
//
// Every bound is the widest the contract allows. On a quiet machine ten
// runs of a workload spread by 1 to 5% of their median; when a
// neighbour shares the core they spread by 20%, every workload alike
// (README.md, "Noise"). A bound inside the machine's own noise rejects
// changes that did nothing.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_user_cpu_ms", "ms", "lower", 0.25},
}

// perLayer are the ungated metrics of the -trace pass, one prefix per
// module. A workload that does not exercise a layer reports 0 for it:
// no work done, no time busy.
var perLayer = []metric{
	// client: what the load generator saw. The tail is the highest
	// percentile with at least ten samples beyond it; *_tail_pct says
	// which one that was.
	{Name: "client.samples", Unit: "count", Better: "higher"},
	// Work per second is not gated: on a busy machine its ten-run
	// spread was over a quarter of its median three times in four.
	{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.query_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.query_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.join_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.join_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.leave_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.join_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.period_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.late_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.late_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "client.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "client.scost_final", Unit: "cost", Better: "lower"},
	{Name: "client.eval_s", Unit: "s", Better: "lower"},

	{Name: "nethttp.overhead_us", Unit: "us", Better: "lower"},

	{Name: "api.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "api.decode_us", Unit: "us", Better: "lower"},
	{Name: "api.answer_us", Unit: "us", Better: "lower"},
	{Name: "api.encode_us", Unit: "us", Better: "lower"},
	{Name: "api.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "api.batch_distinct_ratio", Unit: "ratio", Better: "lower"},

	{Name: "core.route_us", Unit: "us", Better: "lower"},
	{Name: "core.route_cached_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "core.build_view_join_us", Unit: "us", Better: "lower"},
	{Name: "core.build_view_move_us", Unit: "us", Better: "lower"},
	{Name: "core.gauges_us", Unit: "us", Better: "lower"},
	{Name: "core.add_peer_us", Unit: "us", Better: "lower"},
	{Name: "core.remove_peer_us", Unit: "us", Better: "lower"},

	{Name: "service.handler_query_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_batch_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_join_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_leave_us", Unit: "us", Better: "lower"},
	{Name: "service.query_accounted_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.join_accounted_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.publish_us", Unit: "us", Better: "lower"},
	{Name: "service.lock_hold_mean_us", Unit: "us", Better: "lower"},
	{Name: "service.views_published", Unit: "count", Better: "lower"},
	{Name: "service.watch_full", Unit: "count", Better: "lower"},
	{Name: "service.watch_delta", Unit: "count", Better: "higher"},
	{Name: "service.follower_lag_entries_p50", Unit: "count", Better: "lower"},
	{Name: "service.follower_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "service.first_join_ms", Unit: "ms", Better: "lower"},

	{Name: "viewwire.encode_full_us", Unit: "us", Better: "lower"},
	{Name: "viewwire.decode_full_us", Unit: "us", Better: "lower"},
	{Name: "viewwire.full_bytes", Unit: "bytes", Better: "lower"},
	{Name: "viewwire.encode_delta_us", Unit: "us", Better: "lower"},
	{Name: "viewwire.delta_bytes", Unit: "bytes", Better: "lower"},

	{Name: "router.apply_full_us", Unit: "us", Better: "lower"},
	{Name: "router.apply_delta_us", Unit: "us", Better: "lower"},
	{Name: "router.full_syncs", Unit: "count", Better: "lower"},
	{Name: "router.delta_syncs", Unit: "count", Better: "higher"},
	{Name: "router.sync_errors", Unit: "count", Better: "lower"},
	{Name: "router.handler_query_us", Unit: "us", Better: "lower"},

	{Name: "replog.encode_join_us", Unit: "us", Better: "lower"},
	{Name: "replog.join_entry_bytes", Unit: "bytes", Better: "lower"},
	{Name: "replog.decode_record_us", Unit: "us", Better: "lower"},

	{Name: "protocol.rounds", Unit: "count", Better: "lower"},
	{Name: "protocol.moves", Unit: "count", Better: "lower"},
	{Name: "protocol.round_us", Unit: "us", Better: "lower"},
	{Name: "protocol.scan_evaluated", Unit: "count", Better: "lower"},
	{Name: "protocol.scan_skipped_clean_ratio", Unit: "ratio", Better: "higher"},
	{Name: "protocol.oracle_run_ms", Unit: "ms", Better: "lower"},

	{Name: "experiments.table1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig2_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig3_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig4_s", Unit: "s", Better: "lower"},
	{Name: "experiments.build_system_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.alloc_mb_per_join", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
}

// values maps metric names to measured numbers.
type values map[string]float64

// reported is one metric of the result line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders defs from v, every name present: a missing per-layer
// number is 0, the layer did nothing on this workload.
func report(defs []metric, v values) map[string]reported {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		out[d.Name] = reported{v[d.Name], d.Unit}
	}
	return out
}
