package main

// metricDef names one printed metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (names_test.go keeps the
// two in step).
type metricDef struct{ name, unit string }

// endToEnd are printed by untraced runs, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"speedup_best", "x"},
	{"op_ms_p50", "ms"},
}

// perLayer are printed by traced runs, on every workload; a layer the
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms"},
	{"sem.check_ms", "ms"},
	{"ir.build_ms", "ms"},
	{"ssa.construct_ms", "ms"},
	{"ssa.cleanup_ms", "ms"},
	{"transform.unroll_ms", "ms"},
	{"transform.privatize_ms", "ms"},
	{"transform.svp_ms", "ms"},
	{"transform.spt_ms", "ms"},
	{"core.compile_ms_p50", "ms"},
	{"core.compile_ms_p99", "ms"},
	{"core.compile_self_ms", "ms"},
	{"core.pass2_ms", "ms"},
	{"core.spt_loops", "count"},
	{"core.alloc_mb", "MB"},
	{"partition.pass1_ms", "ms"},
	{"partition.search_ms", "ms"},
	{"partition.loops", "count"},
	{"partition.search_nodes", "count"},
	{"cost.evals", "count"},
	{"cost.dedup_hits", "count"},
	{"cost.recomputes", "count"},
	{"profile.ms", "ms"},
	{"profile.runs", "count"},
	{"machine.simulate_ms", "ms"},
	{"machine.coverage_ms", "ms"},
	{"machine.sim_ops", "count"},
	{"machine.ns_per_op", "ns"},
	{"evalharness.jobs", "count"},
	{"interp.ref_ms", "ms"},
	{"service.start_ms", "ms"},
	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_p99", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.hit_ms_p50", "ms"},
	{"service.hit_ms_p99", "ms"},
	{"service.miss_ms_p50", "ms"},
	{"service.hits", "count"},
	{"service.misses", "count"},
	{"service.joins", "count"},
	{"incr.hits", "count"},
	{"incr.misses", "count"},
	{"perfbench.op_ms_p99", "ms"},
	{"perfbench.wall_ms", "ms"},
	{"perfbench.residual_ms", "ms"},
}
