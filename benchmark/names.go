package main

import "slices"

// metricDef names one metric.  BENCHMARK.json declares the same names,
// units and directions; names_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the baseline it may worsen by
}

// endToEndDefs are the seven end-to-end metrics every workload reports.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
	{"allocs_per_op", "count", "lower", 0},
	{"alloc_bytes_per_op", "B", "lower", 0},
}

// boundedDefs are the end-to-end metrics BENCHMARK.json puts a relative
// regression bound on.  The other four cannot carry one.  latency_p99_us
// does not repeat: on the sizing box every thread freezes for 50 µs to 4 ms
// about ninety times a second, and identical service_open runs read 1 to
// 6 ms.  fail_ratio is zero on a correct run (the result line's failed ÷
// attempted carries it).  The allocation metrics are zero, give or take a
// handful of mallocs per second, on the update workloads, so a share of
// their median means nothing there, and they follow the steal count where
// they are not (identical trace_cycle runs read 29 and 32 allocations per
// Run).  All four are still measured on every untraced run and reported
// with the per-layer metrics; -compare shows them, and fails on any increase
// of fail_ratio.
var boundedDefs = endToEndDefs[:3]

// perLayerDefs are what a traced run reports: the end-to-end metrics that
// carry no bound, then the metrics of single layers.
var perLayerDefs = append(slices.Clone(endToEndDefs[3:]), layerDefs...)

var layerDefs = []metricDef{
	{"reducers.view_hit_ns", "ns", "lower", 0},
	{"reducers.view_rotate64_ns", "ns", "lower", 0},
	{"reducers.view_rotate4k_ns", "ns", "lower", 0},
	{"reducers.readview_hit_ns", "ns", "lower", 0},
	{"reducers.view_miss_ns", "ns", "lower", 0},
	{"reducers.new_close_ns", "ns", "lower", 0},
	{"reducers.new_bytes", "B", "lower", 0},

	{"core.probe_ns", "ns", "lower", 0},
	{"core.probe_ro_ns", "ns", "lower", 0},
	{"core.first_lookup_arena_ns", "ns", "lower", 0},
	{"core.first_lookup_heap_ns", "ns", "lower", 0},
	{"core.end_trace_ns_per_view", "ns", "lower", 0},
	{"core.merge_w0_ns_per_view", "ns", "lower", 0},
	{"core.merge_w50_ns_per_view", "ns", "lower", 0},
	{"core.merge_w100_ns_per_view", "ns", "lower", 0},
	{"core.root_merge_ns_per_view", "ns", "lower", 0},
	{"core.register_ns", "ns", "lower", 0},
	{"core.unregister_ns", "ns", "lower", 0},
	{"core.register_contended_ns", "ns", "lower", 0},
	{"core.retire_ns_per_reducer", "ns", "lower", 0},
	{"core.views_created_per_op", "count", "lower", 0},
	{"core.reduces_per_op", "count", "lower", 0},
	{"core.elision_ratio", "ratio", "higher", 0},
	{"core.arena_reuse_ratio", "ratio", "higher", 0},
	{"core.heap_views_per_op", "count", "lower", 0},
	{"core.pool_roundtrips_per_op", "count", "lower", 0},
	{"core.fastpath_hit_ratio", "ratio", "higher", 0},
	{"core.engine_visits_per_op", "count", "lower", 0},
	{"core.dir_recycle_ratio", "ratio", "higher", 0},
	{"core.stale_view_drops_per_op", "count", "lower", 0},

	{"hypermap.probe_ns", "ns", "lower", 0},
	{"hypermap.first_lookup_ns", "ns", "lower", 0},
	{"hypermap.end_trace_ns_per_view", "ns", "lower", 0},
	{"hypermap.merge_w100_ns_per_view", "ns", "lower", 0},
	{"hypermap.register_ns", "ns", "lower", 0},
	{"hypermap.update_probe_ops_s", "1/s", "higher", 0},
	{"hypermap.trace_cycle_ops_s", "1/s", "higher", 0},
	{"hypermap.pbfs_grid_ops_s", "1/s", "higher", 0},

	{"sched.fork_ns", "ns", "lower", 0},
	{"sched.pfor_iter_ns", "ns", "lower", 0},
	{"sched.run_empty_us", "us", "lower", 0},
	{"sched.submit_wait_empty_us", "us", "lower", 0},
	{"sched.submit_us_p50", "us", "lower", 0},
	{"sched.queue_wait_us_p50", "us", "lower", 0},
	{"sched.queue_wait_us_p99", "us", "lower", 0},
	{"sched.run_us_p50", "us", "lower", 0},
	{"sched.settle_us_p50", "us", "lower", 0},
	{"sched.steals_per_op", "count", "lower", 0},
	{"sched.steal_success_ratio", "ratio", "higher", 0},
	{"sched.stalled_joins_per_op", "count", "lower", 0},
	{"sched.forks_per_op", "count", "lower", 0},
	{"sched.merge_tasks_per_op", "count", "lower", 0},
	{"sched.rejected_ratio", "ratio", "lower", 0},
	{"sched.speedup_w_over_1.update_hot", "ratio", "higher", 0},
	{"sched.speedup_w_over_1.pbfs_grid", "ratio", "higher", 0},
	{"sched.serial_overhead.update_hot", "ratio", "lower", 0},
	{"sched.serial_overhead.pbfs_grid", "ratio", "lower", 0},
	{"sched.max_rate_within_slo", "1/s", "higher", 0},

	{"spa.probe_ns", "ns", "lower", 0},
	{"spa.insert_remove_ns", "ns", "lower", 0},
	{"spa.transfer_ns_per_view", "ns", "lower", 0},
	{"pagepool.get_put_ns", "ns", "lower", 0},
	{"pagepool.getn_putn_ns_per_page", "ns", "lower", 0},
	{"tlmm.model_first_lookup_ns", "ns", "lower", 0},
	{"bag.insert_ns", "ns", "lower", 0},
	{"bag.union_ns", "ns", "lower", 0},
	{"pbfs.serial_edges_s", "1/s", "higher", 0},
	{"pbfs.runs_per_bfs", "count", "lower", 0},
	{"graph.gen_s", "s", "lower", 0},
	{"metrics.gather_us", "us", "lower", 0},
	{"metrics.scrape_slowdown_ratio", "ratio", "lower", 0},

	{"harness.gen_lag_p99_us", "us", "lower", 0},
	{"harness.slo_miss_ratio", "ratio", "lower", 0},
	{"harness.trace_overhead_ratio", "ratio", "higher", 0},
	{"harness.timer_ns", "ns", "lower", 0},
	{"harness.repeat_spread_ratio", "ratio", "lower", 0},
	{"harness.host_slowdown_ratio", "ratio", "lower", 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
