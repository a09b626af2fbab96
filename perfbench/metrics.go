package main

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's fixed metric set; BENCHMARK.json at the repository
// root records the same names and units (metrics_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd are printed by an untraced run (--trace 0), on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"sustainable_rate_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"sim_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MiB"},
	{"ops_ok_ratio", "ratio"},
}

// perLayer are printed by a traced run (--trace 1), on every workload; a
// layer the workload does not use reads 0. Times and counts are means
// per op unless the name says otherwise.
var perLayer = []metricDef{
	{"rheemql.parse_us", "us"},
	{"rheemql.compile_us", "us"},
	{"plan.build_us", "us"},
	{"physical.lower_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.atoms_per_plan", "count"},
	{"optimizer.card_error_p50", "log2"},
	{"optimizer.platform_share.java", "ratio"},
	{"optimizer.platform_share.spark", "ratio"},
	{"optimizer.platform_share.relational", "ratio"},
	{"executor.run_ms", "ms"},
	{"executor.self_ms", "ms"},
	{"executor.jobs_per_op", "count"},
	{"executor.critical_path_share", "ratio"},
	{"executor.loop_overhead_us_per_iter", "us"},
	{"executor.queue_wait_ms", "ms"},
	{"executor.retries_per_op", "count"},
	{"channel.conv_ms", "ms"},
	{"channel.conv_model_ms", "ms"},
	{"channel.moved_bytes_per_op", "bytes"},
	{"channel.conv_steps_per_op", "count"},
	{"channel.batch_consumer_share", "ratio"},
	{"javaengine.busy_ms", "ms"},
	{"javaengine.ns_per_record", "ns"},
	{"sparksim.busy_ms", "ms"},
	{"sparksim.ns_per_record", "ns"},
	{"sparksim.shuffled_bytes_per_op", "bytes"},
	{"relengine.busy_ms", "ms"},
	{"relengine.ns_per_record", "ns"},
	{"relengine.temp_rows_per_op", "count"},
	{"service.submit_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.dispatch_ms", "ms"},
	{"service.result_fetch_us", "us"},
	{"service.poll_useful_ratio", "ratio"},
	{"service.shed_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_us_per_op", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.poll_delay_ms", "ms"},
	{"other_ms", "ms"},
	{"layers.unattributed_share", "ratio"},
	{"ops_failed_ratio", "ratio"},
	{"ops_bytes_identical_ratio", "ratio"},
}
