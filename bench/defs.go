package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and the per-layer ledger. BENCHMARK.json at the
// repository root lists the same names; bench_test.go fails when the two
// drift apart.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"detailed_serial", "20 apps on RTX 2080 Ti under sim.Detailed, serial engine: the cycle-accurate denominator of every speedup (smcore units, timed cache, noc, dram, serial tick)"},
	{"basic_serial", "same 20 jobs under sim.Basic: the paper's headline simulator; analytic ALUs, so an ALU-model change shows here and a cycle-accurate-unit change does not"},
	{"basic_sharded", "BFS NW GEMM SM GRU under sim.Basic with EngineThreads=2, each at EpochCycles 1 and 8: barrier, staged arenas and fold instead of the serial tick"},
	{"memory_corpus", "20 apps on three GPUs under sim.Memory with a cold profile cache: reuse profiling, ContentHash and fast-forward dominate; timed caches, NoC and DRAM are bypassed"},
	{"service_local", "in-process sweep daemon behind HTTP: one cold 40-job sweep (admit, resolve, runner, Cache.Fulfill, Store.Put) then 400 warm resubmits (Cache.Claim hit, Store.Get)"},
	{"service_remote", "same cold sweep through the lease plane: Remote.Enabled daemon and two loopback workers (lease grant, heartbeat, blob publish, fenced commit)"},
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd lists what a user of the simulator or the daemon sees. Every
// workload reports every one of them.
//
// Host time (sim_kips, cpu_s_per_minst, warm_ms, setup_s) is reported
// divided by the run's host factor, see calib.go.
//
// The issue asked for 10% on the timing metrics. The pass count is capped
// by the driver's budget (136 runs in 3420 s: about five passes of the
// slowest workload in a 12 s run), so it could not be raised. On the
// 2-vCPU bench host, after the division, ten runs on ten seeds spread
// (first to third quartile as a share of the median) by up to 9% in a
// host-time metric in an ordinary hour and by far more in the worst one
// seen, and single pairs of runs have differed by 25%; BASELINE.md has the
// numbers. So the host-time metrics carry the widest bound there is, 25%,
// and peak_rss_mb (spread up to 6%) 20%. allocs_per_kinst (spread 0.08%)
// and cycle_err_pct (repeats exactly) keep tight ones.
var endToEnd = []metricDef{
	{"sim_kips", "kinst/s", "higher", 0.25},
	{"cpu_s_per_minst", "s/Minst", "lower", 0.25},
	{"allocs_per_kinst", "1/kinst", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"cycle_err_pct", "%", "lower", 0.005},
	{"warm_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// hostCategories are the buckets of the CPU-profile reduction, in print
// order; see profile.go for the attribution rule.
var hostCategories = []string{
	"engine", "smcore", "cache", "noc", "dram", "analytic", "reuse", "trace",
	"metrics", "service", "runtime_gc", "runtime_sched", "other",
}

// simCounts are the simulated-machine counters summed over one pass. They
// repeat exactly for a seed, and a speed-only change must not move them.
var simCounts = []metricDef{
	{Name: "sim.cycles", Unit: "count", Better: "lower"},
	{Name: "engine.ticked_cycles", Unit: "count", Better: "lower"},
	{Name: "engine.skipped_cycles", Unit: "count", Better: "higher"},
	{Name: "engine.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "smcore.issued", Unit: "count", Better: "lower"},
	{Name: "smcore.stall_cycles", Unit: "count", Better: "lower"},
	{Name: "smcore.ipc", Unit: "inst/cycle", Better: "higher"},
	{Name: "cache.l1_accesses", Unit: "count", Better: "lower"},
	{Name: "cache.l1_hit_pct", Unit: "%", Better: "higher"},
	{Name: "cache.l2_accesses", Unit: "count", Better: "lower"},
	{Name: "cache.l2_hit_pct", Unit: "%", Better: "higher"},
	{Name: "cache.mshr_stall", Unit: "count", Better: "lower"},
	{Name: "noc.requests", Unit: "count", Better: "lower"},
	{Name: "noc.stall", Unit: "count", Better: "lower"},
	{Name: "dram.requests", Unit: "count", Better: "lower"},
	{Name: "dram.row_hit_pct", Unit: "%", Better: "higher"},
}

// serviceCounts are read from GET /v1/stats after the last warm resubmit;
// they are zero on the simulator workloads.
var serviceCounts = []metricDef{
	{Name: "service.cache_hits", Unit: "count", Better: "higher"},
	{Name: "service.cache_misses", Unit: "count", Better: "lower"},
	{Name: "service.store_puts", Unit: "count", Better: "lower"},
	{Name: "service.store_dups", Unit: "count", Better: "lower"},
	{Name: "service.lease_expired", Unit: "count", Better: "lower"},
	{Name: "service.lease_stale", Unit: "count", Better: "lower"},
	{Name: "service.shed", Unit: "count", Better: "lower"},
}

// rigMetrics are measured by the layer rigs (rigs.go, rigs_service.go):
// one module or one service layer driven through its exported functions,
// the same way on every traced run whatever the workload.
var rigMetrics = []metricDef{
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "trace.write_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "trace.read_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "trace.hash_s", Unit: "s", Better: "lower"},
	{Name: "reuse.profile_s", Unit: "s", Better: "lower"},
	{Name: "reuse.accesses_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cache.functional_access_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.event_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.shard_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.epoch8_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "smcore.issue_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "analytic.alu_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "analytic.mem_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.timed_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.timed_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.msg_ns", Unit: "ns", Better: "lower"},
	{Name: "dram.req_ns", Unit: "ns", Better: "lower"},
	{Name: "regress.canonical_us", Unit: "us", Better: "lower"},
	{Name: "snap.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.bytes", Unit: "count", Better: "lower"},
	{Name: "hwmodel.run_s", Unit: "s", Better: "lower"},
	{Name: "runner.parallel_eff_pct", Unit: "%", Better: "higher"},
	{Name: "service.submit_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "service.events_ms", Unit: "ms", Better: "lower"},
	{Name: "service.results_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_claim_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.store_get_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_fulfill_us", Unit: "us", Better: "lower"},
	{Name: "service.store_put_us", Unit: "us", Better: "lower"},
	{Name: "service.http_store_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "service.lease_rtt_ms", Unit: "ms", Better: "lower"},
}

// derivedMetrics come from the traced workload itself: the traced passes
// against the untraced ones and against the reference child.
var derivedMetrics = []metricDef{
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "reuse.profile_share_pct", Unit: "%", Better: "lower"},
	{Name: "sim.host_ns_per_ticked_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.speedup_vs_detailed", Unit: "x", Better: "higher"},
	{Name: "engine.shard_slowdown", Unit: "x", Better: "lower"},
	{Name: "service.remote_overhead_pct", Unit: "%", Better: "lower"},
}

// perLayer is the whole ledger a traced run prints, in print order.
func perLayer() []metricDef {
	var out []metricDef
	out = append(out, derivedMetrics...)
	for _, c := range hostCategories {
		out = append(out, metricDef{Name: "host." + c + "_pct", Unit: "%", Better: "lower"})
	}
	out = append(out, simCounts...)
	out = append(out, serviceCounts...)
	out = append(out, rigMetrics...)
	return out
}
