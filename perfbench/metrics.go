package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's declaration in BENCHMARK.json: every untraced run reports every
// end-to-end metric, every traced run every per-layer metric, whatever the
// workload (a per-layer value of 0 means the workload does not exercise that
// layer). metrics_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics: each is defined, and never 0, on every
// workload.
var endToEnd = []metricDef{
	{"sim_mips", "MIPS", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"spec_p50_ms", "ms", "lower"},
	{"spec_tail_ms", "ms", "lower"},
}

// figureDefs are the end-to-end figures every report prints by name and unit,
// or as n/a where the workload does not produce one. Beyond the first
// three, which are also gated, they exist on one workload each
// (error_rate is 0 when all is well), or are simulated statistics whose
// seed-to-seed spread is not host noise, so they are printed, not gated;
// spec_p50_ms and spec_tail_ms gate the serving latency on every workload.
var figureDefs = []metricDef{
	{"sim_mips", "MIPS", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"error_rate", "fraction", "lower"},
	{"paper_err_pts", "pts", "lower"},
	{"sample_err_pct", "%", "lower"},
	{"sample_ci_pct", "%", "lower"},
	{"serve_p50_ms", "ms", "lower"},
	{"serve_p99_ms", "ms", "lower"},
	{"serve_max_rps", "1/s", "higher"},
}

// packages are the spb/internal packages a CPU profile's self time is
// attributed to; each gets a <pkg>.self_share metric, and rest.self_share
// takes everything else (runtime, standard library, the benchmark itself),
// so the shares sum to 1.
var packages = []string{
	"bpred", "cache", "client", "cluster", "config", "core", "cpu", "dram",
	"energy", "faults", "figures", "mem", "memsys", "obs", "prefetch", "prof",
	"server", "sim", "stats", "storebuf", "tlb", "topdown", "trace", "workloads",
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range packages {
		defs = append(defs, metricDef{p + ".self_share", "fraction", "lower"})
	}
	return append(defs, []metricDef{
		{"rest.self_share", "fraction", "lower"},
		{"memsys.dir.self_share", "fraction", "lower"},
		{"runtime.gc_share", "fraction", "lower"},
		{"go.alloc_mb_per_minst", "MB/Minst", "lower"},

		{"sim.ns_per_cycle", "ns", "lower"},
		{"cpu.ipc", "inst/cycle", "higher"},
		{"cpu.sb_stall_frac", "fraction", "lower"},
		{"storebuf.forward_ns", "ns", "lower"},
		{"core.observe_ns", "ns", "lower"},
		{"core.bursts", "count", "higher"},
		{"core.spf_accuracy", "fraction", "higher"},
		{"cache.lookup_ns", "ns", "lower"},
		{"cache.insert_l1_ns", "ns", "lower"},
		{"cache.insert_llc_ns", "ns", "lower"},
		{"cache.warm_insert_ns", "ns", "lower"},
		{"cache.l1_miss_rate", "fraction", "lower"},
		{"memsys.load_ns", "ns", "lower"},
		{"memsys.store_acquire_ns", "ns", "lower"},
		{"memsys.warm_touch_ns", "ns", "lower"},
		{"memsys.invalidations_per_kinst", "1/kinst", "lower"},
		{"dram.read_ns", "ns", "lower"},
		{"dram.reads_per_kinst", "1/kinst", "lower"},
		{"prefetch.observe_ns", "ns", "lower"},
		{"prefetch.gpf_accuracy", "fraction", "higher"},
		{"trace.next_ns", "ns", "lower"},
		{"trace.skip_ns", "ns", "lower"},
		{"tlb.translate_ns", "ns", "lower"},
		{"sim.point_ms_p50", "ms", "lower"},
		{"sim.point_ms_p90", "ms", "lower"},
		{"sim.warm_forks", "count", "higher"},
		{"sim.sample_intervals", "count", "higher"},
		{"sim.skipped_frac", "fraction", "higher"},

		{"client.memory_ms_p50", "ms", "lower"},
		{"client.memory_ms_p99", "ms", "lower"},
		{"client.disk_ms_p50", "ms", "lower"},
		{"client.disk_ms_p99", "ms", "lower"},
		{"client.simulated_ms_p50", "ms", "lower"},
		{"client.simulated_ms_p99", "ms", "lower"},
		{"server.queue_wait_ms_p50", "ms", "lower"},
		{"server.queue_wait_ms_p99", "ms", "lower"},
		{"server.run_ms_p50", "ms", "lower"},
		{"server.run_ms_p99", "ms", "lower"},
		{"server.store_write_ms_p50", "ms", "lower"},
		{"server.store_write_ms_p99", "ms", "lower"},
		{"server.cache_hit_ratio", "fraction", "higher"},
		{"server.queue_rejected", "count", "lower"},

		{"loadgen.lag_p99_ms", "ms", "lower"},
		{"bench.trace_overhead_pct", "%", "lower"},
	}...)
}()

// unitOf returns the unit of a metric in either list.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
