package main

// metricDef names one metric the program prints. BENCHMARK.json lists the
// same names and units (and, alone, which direction is better and the
// bounds); TestBenchmarkJSONMatchesTables keeps the two from drifting apart.
type metricDef struct{ name, unit string }

// endToEnd is what a client of probconsd sees, measured closed loop over a
// real socket with tracing off. error_share is not among them only because
// a gated metric may never read 0; it is the result line's failed/attempted
// and the ungated probconsd.error_share.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"setup_s", "s"},
}

// perLayer is one number per layer boundary, named <layer>.<metric>. None
// is gated. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// cmd/probconsd: the process, its socket, and the open-loop diagnostic.
	{"probconsd.http_overhead_us", "us"},
	{"probconsd.latency_p99_ms", "ms"},
	{"probconsd.error_share", "share"},
	{"probconsd.rss_peak_mb", "MB"},
	{"probconsd.heap_mb", "MB"},
	{"probconsd.gc_pause_p99_ms", "ms"},
	{"probconsd.goroutines_end", "count"},
	{"probconsd.build_s", "s"},
	{"probconsd.open_p50_ms", "ms"},
	{"probconsd.open_p99_ms", "ms"},
	{"probconsd.open_late_p99_ms", "ms"},
	// internal/service.
	{"service.decode_us", "us"},
	{"service.resolve_us", "us"},
	{"service.encode_us", "us"},
	{"service.analyze_us", "us"},
	{"service.handler_us", "us"},
	{"service.unattributed_us", "us"},
	{"service.allocs_per_req", "count"},
	{"service.bytes_per_req", "B"},
	{"service.memo_hit_share", "share"},
	{"service.optimize_p50_ms", "ms"},
	{"service.tail_exact_p50_ms", "ms"},
	{"service.tail_importance_p50_ms", "ms"},
	{"service.sweep_p50_ms", "ms"},
	{"service.batch_p50_ms", "ms"},
	{"service.batch_dedup_share", "share"},
	// internal/qcache.
	{"qcache.hit_us", "us"},
	{"qcache.hit_share", "share"},
	{"qcache.miss_insert_us", "us"},
	{"qcache.evictions_per_req", "count"},
	{"qcache.coalesced_per_req", "count"},
	{"qcache.peer_get_us", "us"},
	{"qcache.peer_exec_us", "us"},
	{"qcache.peer_allocs_per_get", "count"},
	// internal/core.
	{"core.fingerprint_us", "us"},
	{"core.engine_us", "us"},
	{"core.engine_cold_us", "us"},
	{"core.block_cache_hit_share", "share"},
	{"core.rest_table_hit_share", "share"},
	{"core.result_memo_hits_per_req", "count"},
	{"core.pool_allocs_per_kreq", "count"},
	{"core.analyze_n64_us", "us"},
	{"core.analyze_n256_ms", "ms"},
	{"core.analyze_n1024_ms", "ms"},
	// internal/dist.
	{"dist.joint_build_us", "us"},
	{"dist.tail_fold_us", "us"},
	{"dist.joint_builds_per_req", "count"},
	{"dist.parallel_folds_per_req", "count"},
	{"dist.loo_deflations_per_req", "count"},
	{"dist.cells_per_build", "count"}, // computed from N, not measured
	// internal/optimize.
	{"optimize.solve_ms", "ms"},
	{"optimize.iterations_per_solve", "count"},
	{"optimize.grad_us", "us"},
	{"optimize.lmo_us", "us"},
	{"optimize.gap_final", "gap"},
	// internal/montecarlo.
	{"montecarlo.importance_ms", "ms"},
	{"montecarlo.samples_per_s", "1/s"},
	{"montecarlo.rel_ci99", "share"},
	// internal/obs.
	{"obs.trace_cycle_ns", "ns"},
	{"obs.histogram_observe_ns", "ns"},
	{"obs.metrics_scrape_ms", "ms"},
	{"obs.traces_kept_share", "share"},
	// The benchmark's own tracing.
	{"bench.trace_overhead_share", "share"},
	// How many times slower than nominal the box ran the calibration bursts
	// during the traced run's closed-loop phase; the per-layer times above
	// are wall-clock, this says on what kind of minute they were taken.
	{"bench.box_slowdown", "ratio"},
}

// value is one measured metric. Segments, Spread and Raw are kept in --out
// files for the end-to-end metrics: the per-segment readings at nominal box
// speed the median was taken over, their interquartile range over that
// median, and the median of the same readings as the clock gave them.
type value struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
	Spread   float64   `json:"spread,omitempty"`
	Raw      float64   `json:"raw,omitempty"`
}
