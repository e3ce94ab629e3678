package main

// metricDef is one reported metric. BENCHMARK.json lists the same
// names and units (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics: what a user running the
// sweep waits for and pays.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // grid expansion + bench.Prepare of every point (+ daemon start, store open)
	{"sweep_wall_s", "s"}, // cold sweep submitted until every result is in hand
	{"sweep_cpu_s", "s"},  // process user+sys CPU over the same interval
	{"alloc_mb", "MB"},    // heap bytes allocated over the same interval
}

// simModules are the simulator's layers (the internal/* packages), in
// the order they are reported; runtime collects profile samples with
// no simulator frame.
var simModules = []string{
	"sim", "cpu", "mem", "bus", "ring", "nic", "ricenic", "intelnic", "core", "xen",
	"backend", "guest", "transport", "ether", "topo", "workload", "stats",
	"bench", "campaign", "store", "daemon", "snap", runtimeModule,
}

// moduleEventMetrics are the per-module event totals reported besides
// the event-kind counters (eventKinds); modules whose total equals one
// of those counters are left out.
var moduleEventMetrics = []string{
	"bench", "nic", "ricenic", "intelnic", "xen", "backend", "guest", "topo", "workload",
}

// perLayer are the traced run's metrics, one layer each.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range simModules {
		out = append(out, metricDef{m + ".cpu_share", "share"})
	}
	out = append(out,
		metricDef{"sim.events", "count"},
		metricDef{"sim.pending_mean", "count"},
		metricDef{"sim.ns_per_event", "ns"},
	)
	for _, k := range eventKinds {
		out = append(out, metricDef{k.metric, "count"})
	}
	for _, m := range moduleEventMetrics {
		out = append(out, metricDef{m + ".events", "count"})
	}
	out = append(out,
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.peak_heap_mb", "MB"},
		metricDef{"bench.prepare_s", "s"},
		metricDef{"bench.warmup_s", "s"},
		metricDef{"bench.window_s", "s"},
		metricDef{"bench.collect_s", "s"},
		metricDef{"campaign.parallel_eff", "ratio"},
		metricDef{"campaign.result_key_s", "s"},
		metricDef{"store.get_s", "s"},
		metricDef{"store.put_s", "s"},
		metricDef{"store.hit_rate", "ratio"},
		metricDef{"daemon.submit_s", "s"},
		metricDef{"daemon.results_s", "s"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"resweep_wall_s", "s"},
		metricDef{"paper_err_pct", "%"},
		metricDef{"failed_frac", "ratio"},
	)
	return out
}
