package main

// metricSpec names a reported metric and its unit; the lists below match
// BENCHMARK.json entry for entry (the self-test checks it).
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"norm_cpu_s", "s"},
	{"sim_insts_per_norm_cpu_s", "1/s"},
	{"allocs_per_kinst", "1/kinst"},
	{"max_rss_mb", "MB"},
}

var perLayerMetrics = []metricSpec{
	{"wall_s", "s"},
	{"sim_insts_per_s", "1/s"},
	{"cpu_s", "s"},
	{"ref.chunk_ms", "ms"},

	{"experiments.self_frac", "frac"},
	{"sweep.self_frac", "frac"},
	{"sim.self_frac", "frac"},
	{"interp.self_frac", "frac"},
	{"cpu.self_frac", "frac"},
	{"regfile.self_frac", "frac"},
	{"vrmu.self_frac", "frac"},
	{"mem.self_frac", "frac"},
	{"cache.self_frac", "frac"},
	{"dram.self_frac", "frac"},
	{"xbar.self_frac", "frac"},
	{"harden.self_frac", "frac"},
	{"telemetry.self_frac", "frac"},
	{"difftest.self_frac", "frac"},
	{"farm.self_frac", "frac"},
	{"runtime.self_frac", "frac"},
	{"unattributed.self_frac", "frac"},

	{"experiments.fig12_s", "s"},
	{"experiments.fig13_s", "s"},

	{"sim.count", "count"},
	{"sim.cycles", "cycles"},
	{"sim.insts", "insts"},
	{"sim.ipc", "inst/cycle"},
	{"sim.skip_frac", "frac"},
	{"sim.cycles_per_s", "cycles/s"},
	{"sim.op_p50_ms", "ms"},
	{"sim.op_p90_ms", "ms"},
	{"sim.new_ms_p50", "ms"},
	{"sim.run_ms_p50", "ms"},

	{"cpu.ctx_switches_per_kinst", "1/kinst"},
	{"cpu.decode_reg_stall_frac", "frac"},
	{"cpu.fetch_stall_frac", "frac"},
	{"cpu.mem_wait_frac", "frac"},
	{"cpu.switch_wait_frac", "frac"},

	{"vrmu.hit_rate", "frac"},
	{"vrmu.evictions_per_kinst", "1/kinst"},
	{"vrmu.dirty_evict_frac", "frac"},
	{"vrmu.cresets_per_kinst", "1/kinst"},

	{"regfile.bsi_fills_per_kinst", "1/kinst"},
	{"regfile.bsi_spills_per_kinst", "1/kinst"},
	{"regfile.acquire_ready_frac", "frac"},
	{"regfile.acquire_s", "s"},

	{"cache.d_hit_rate", "frac"},
	{"cache.d_reg_access_frac", "frac"},
	{"cache.d_port_rejects_per_kinst", "1/kinst"},
	{"cache.i_hit_rate", "frac"},

	{"dram.row_hit_rate", "frac"},
	{"dram.avg_read_latency_cycles", "cycles"},
	{"dram.reads_per_kinst", "1/kinst"},

	{"xbar.forwarded_per_kinst", "1/kinst"},
	{"xbar.rejected", "count"},

	{"difftest.commits", "count"},
	{"difftest.scenarios", "count"},
	{"difftest.divergences", "count"},
	{"difftest.generate_ms", "ms"},

	{"farm.submit_ms_p50", "ms"},
	{"farm.queue_wait_ms_p50", "ms"},
	{"farm.exec_ms_p50", "ms"},
	{"farm.exec_ms_p90", "ms"},
	{"farm.poll_slack_ms", "ms"},
	{"farm.hit_p50_ms", "ms"},
	{"farm.hit_p90_ms", "ms"},
	{"farm.cache_hits", "count"},
	{"farm.retries", "count"},

	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_kinst", "B/kinst"},

	{"trace.overhead_frac", "frac"},
	{"error_rate", "frac"},
}
