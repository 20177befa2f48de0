package main

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetricList is every per-layer metric a traced run prints, on every
// workload. A layer a workload does not exercise reads 0 (the chains run
// no service; the service jobs give no per-sweep spans or kernel spans).
var layerMetricList = []layerMetric{
	{"core.new_ms", "ms"},
	{"update.flush_ms_per_sweep", "ms"},
	{"update.flushes_per_sweep", "count"},
	{"update.acceptance", "ratio"},
	{"greens.wrap_ms_per_sweep", "ms"},
	{"greens.cluster_ms_per_sweep", "ms"},
	{"greens.refresh_ms_per_sweep", "ms"},
	{"greens.wraps_per_sweep", "count"},
	{"greens.udt_steps_per_sweep", "count"},
	{"greens.wrap_drift_max", "rel"},
	{"greens.strat_residual_max", "rel"},
	{"measure.ms_per_sweep", "ms"},
	{"blas.gemm_calls_per_sweep", "count"},
	{"blas.gemm_gflop_per_sweep", "GFlop"},
	{"blas.gemm_gflops", "GFlop/s"},
	{"lapack.qr_per_sweep", "count"},
	{"lapack.qrp_per_sweep", "count"},
	{"lapack.qrp_panels_per_sweep", "count"},
	{"lapack.qr_gflops", "GFlop/s"},
	{"lapack.qrp_gflops", "GFlop/s"},
	{"autopilot.final_k", "count"},
	{"autopilot.stability_checks", "count"},
	{"autopilot.decisions", "count"},
	{"gpu.modeled_clock_ms", "ms"},
	{"gpu.launch_overhead_ms", "ms"},
	{"gpu.transferred_mb", "MB"},
	{"gpu.kernels", "count"},
	{"gpu.graph_replays", "count"},
	{"gpu.job_exec_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.cache_hit_ms", "ms"},
	{"service.cache_hits", "count"},
	{"service.shards_run", "count"},
	{"service.shard_restarts", "count"},
	{"obs.phase_coverage", "ratio"},
	{"go.allocs_per_sweep", "count"},
	{"go.gc_cycles", "count"},
	{"trace.job.self_ms", "ms"},
	{"trace.job.coverage", "ratio"},
	{"trace.run.self_ms", "ms"},
	{"trace.run.coverage", "ratio"},
	{"trace.sweep.self_ms", "ms"},
	{"trace.sweep.coverage", "ratio"},
	{"trace.phase.self_ms", "ms"},
	{"trace.phase.coverage", "ratio"},
	{"trace.kernel.self_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_ms", "ms"},
}

// fillLayerDefaults sets every per-layer metric the workload did not
// measure to 0, so each traced run prints the full list.
func fillLayerDefaults(l metrics) {
	for _, m := range layerMetricList {
		if _, ok := l[m.name]; !ok {
			l.set(m.name, 0, m.unit)
		}
	}
}
