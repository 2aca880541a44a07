package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the package test holds the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with tracing off. Each
// is meaningful on every workload (main.go says what an operation is on
// each), because every run reports all of them. The tail percentile is
// p90: on this benchmark's 2-CPU VM the p99 of the serving workloads
// moved by 30-45% between runs.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"full_geomean_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"throughput_per_cpu_s", "1/cpu-s", "higher"},
	{"op_time_p50_ms", "ms", "lower"},
	{"op_time_p90_ms", "ms", "lower"},
}

// table1Programs are the paper's nine Table-1 benchmarks, in its order.
var table1Programs = []string{
	"Conway", "Heat", "QSort", "Randomized", "Sieve",
	"SmithWaterman", "Strassen", "StreamCluster", "StreamCluster2",
}

// perLayerMetrics are reported by every workload's traced run. A metric
// whose layer the workload does not exercise reads 0.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, better})
		}
	}
	for _, p := range table1Programs {
		add("ms", "lower", "core.run_ms.full."+p, "core.run_ms.unverified."+p)
		add("x", "lower", "core.overhead_x."+p)
		add("count", "lower", "core.tasks."+p, "core.promise_ops."+p)
	}
	add("x", "lower", "core.overhead_x", "core.mem_overhead_x")
	add("s", "lower", "core.unverified_geomean_s")
	add("MB", "lower", "core.alloc_mb.full", "core.alloc_mb.unverified")
	add("count", "lower", "core.gc_cycles.full", "core.alarms")
	add("ns", "lower", "core.op.fulfilled_get_ns", "core.op.setget_ns", "core.op.spawn_ns")

	add("us", "lower",
		"serve.admit_us.p50", "serve.admit_us.p99",
		"serve.queue_us.p50", "serve.queue_us.p99",
		"serve.start_us.p50", "serve.start_us.p99",
		"serve.body_us.p50", "serve.body_us.p99",
		"serve.verdict_us.p50", "serve.verdict_us.p99")
	add("fraction", "lower", "serve.rejected_frac")
	add("KB", "lower", "serve.alloc_kb_per_session")

	add("count", "lower", "sched.tasks_per_session", "sched.steals_per_task",
		"sched.wakes_per_task", "sched.workers_spawned")

	add("us", "lower",
		"front.submit_us.p50", "front.submit_us.p99",
		"front.overhead_us.p50", "front.overhead_us.p99",
		"front.deliver_us.p50", "front.deliver_us.p99")
	add("count", "lower", "front.rejects")

	add("KB", "lower", "trace.kb_per_session.p50")
	add("count", "lower", "trace.events_dropped")

	add("us", "lower", "graph.node_us.p50", "graph.node_us.p99")
	add("ms", "lower", "graph.sched_gap_ms.p50")
	add("count", "lower", "graph.node_retries", "graph.cascade_canceled",
		"graph.admission_retries", "graph.oracle_mismatches")

	add("fraction", "lower", "failed_frac")
	return out
}()

// setMetric records a metric under its catalogued unit; an uncatalogued
// name is a bug in this program.
func setMetric(into map[string]metric, defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			into[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not catalogued", name))
}

func (r *report) setE2E(name string, v float64)   { setMetric(r.e2e, endToEndMetrics, name, v) }
func (r *report) setLayer(name string, v float64) { setMetric(r.layer, perLayerMetrics, name, v) }

// complete fills every catalogued metric the workload did not report:
// per-layer metrics of absent layers read 0. A missing end-to-end metric
// is a bug in this program and is reported as a failed check.
func (r *report) complete() {
	var missing []string
	for _, d := range endToEndMetrics {
		if _, ok := r.e2e[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.problem("end-to-end metrics not measured: %v", missing)
	}
	for _, d := range perLayerMetrics {
		if _, ok := r.layer[d.name]; !ok {
			r.layer[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
}
