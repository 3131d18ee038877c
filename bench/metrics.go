package main

// metricDef declares one metric. The tables below are what the program
// emits; BENCHMARK.json carries the same declarations for the driver and
// the smoke test holds the two to each other.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd is measured by the untraced run. README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer is measured by the traced run (-trace 1). README.md gives,
// for each, the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "field.eval_ns.astro", unit: "ns", better: "lower"},
	{name: "field.eval_ns.fusion", unit: "ns", better: "lower"},
	{name: "field.eval_ns.thermal", unit: "ns", better: "lower"},
	{name: "field.evalt_ns.astro", unit: "ns", better: "lower"},
	{name: "integrate.step_ns.astro", unit: "ns", better: "lower"},
	{name: "integrate.step_ns.fusion", unit: "ns", better: "lower"},
	{name: "integrate.step_ns.thermal", unit: "ns", better: "lower"},
	{name: "integrate.evals_per_step", unit: "count", better: "lower"},
	{name: "grid.locate_ns", unit: "ns", better: "lower"},
	{name: "trace.append_ns_per_point", unit: "ns", better: "lower"},
	{name: "trace.marshal_ns_per_point", unit: "ns", better: "lower"},
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.handoff_ns", unit: "ns", better: "lower"},
	{name: "sim.spawn_us_per_proc", unit: "us", better: "lower"},
	{name: "comm.roundtrip_ns", unit: "ns", better: "lower"},
	{name: "store.cache_hit_ns", unit: "ns", better: "lower"},
	{name: "store.cache_miss_ns", unit: "ns", better: "lower"},
	{name: "prefetch.onexit_ns", unit: "ns", better: "lower"},
	{name: "obs.span_ns", unit: "ns", better: "lower"},
	{name: "core.run_ms.static", unit: "ms", better: "lower"},
	{name: "core.run_ms.ondemand", unit: "ms", better: "lower"},
	{name: "core.run_ms.hybrid", unit: "ms", better: "lower"},
	{name: "core.run_ms.stealing", unit: "ms", better: "lower"},
	{name: "core.nonintegrate_frac.static", unit: "frac", better: "lower"},
	{name: "core.nonintegrate_frac.ondemand", unit: "frac", better: "lower"},
	{name: "core.nonintegrate_frac.hybrid", unit: "frac", better: "lower"},
	{name: "core.nonintegrate_frac.stealing", unit: "frac", better: "lower"},
	// Exact simulated counts of one round, summed from the summaries.
	// They have no better direction: they must not move at all.
	{name: "core.steps", unit: "count", better: "higher"},
	{name: "comm.msgs", unit: "count", better: "lower"},
	{name: "comm.bytes", unit: "count", better: "lower"},
	{name: "store.blocks_loaded", unit: "count", better: "lower"},
	{name: "store.blocks_purged", unit: "count", better: "lower"},
	{name: "prefetch.issued", unit: "count", better: "lower"},
	{name: "faults.seeds_adopted", unit: "count", better: "lower"},
	{name: "metrics.encode_us", unit: "us", better: "lower"},
	{name: "metrics.parse_us", unit: "us", better: "lower"},
	{name: "experiments.parsekey_us", unit: "us", better: "lower"},
	{name: "experiments.key_digest_us", unit: "us", better: "lower"},
	{name: "experiments.memo_hit_ns", unit: "ns", better: "lower"},
	{name: "experiments.problem_us", unit: "us", better: "lower"},
	{name: "experiments.pool_efficiency", unit: "frac", better: "higher"},
	{name: "serve.store_get_us", unit: "us", better: "lower"},
	{name: "serve.store_miss_us", unit: "us", better: "lower"},
	{name: "serve.store_put_us", unit: "us", better: "lower"},
	{name: "serve.hit_overhead_us.disk", unit: "us", better: "lower"},
	{name: "serve.hit_overhead_us.memory", unit: "us", better: "lower"},
	{name: "serve.cold_overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.src_mismatch", unit: "count", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "rt.gc_cycles_per_round", unit: "count", better: "lower"},
	{name: "rt.gc_pause_ms_per_round", unit: "ms", better: "lower"},
	{name: "rt.mallocs_per_kstep", unit: "count", better: "lower"},
	{name: "rt.cpu_util", unit: "frac", better: "higher"},
	{name: "bench.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "bench.host_jitter_frac", unit: "frac", better: "lower"},
}

func unitOf(name string) string {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}
