package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/serve"
)

// poolSnap is a serving pool's counters at one instant, for deltas over
// the measured phase.
type poolSnap struct {
	pool  serve.PoolStats
	sched sched.SchedStats
	alloc float64
}

func snapPool(p *serve.Pool) poolSnap {
	return poolSnap{pool: p.Stats(), sched: p.Executor().SchedStats(), alloc: readMetric(metricAllocBytes)}
}

// setSched reports the shared scheduler's work between two snapshots.
func (r *report) setSched(a, b poolSnap) {
	sessions := float64(b.pool.Completed - a.pool.Completed)
	tasks := float64(b.sched.Spawned + b.sched.Reused - a.sched.Spawned - a.sched.Reused)
	r.setLayer("sched.tasks_per_session", tasks/math.Max(sessions, 1))
	r.setLayer("sched.steals_per_task", float64(b.sched.Steals-a.sched.Steals)/math.Max(tasks, 1))
	r.setLayer("sched.wakes_per_task", float64(b.sched.Wakes-a.sched.Wakes)/math.Max(tasks, 1))
	r.setLayer("sched.workers_spawned", float64(b.sched.Spawned+b.sched.Thieves-a.sched.Spawned-a.sched.Thieves))
}

// latencies collects one kind-tagged operation time per operation.
type latencies struct {
	all    *sample   // ms, +Inf for a failed or refused operation
	byKind []*sample // seconds, successful operations only
}

func newLatencies(kinds int, seed int64) *latencies {
	l := &latencies{all: newSample(seed), byKind: make([]*sample, kinds)}
	for k := range l.byKind {
		l.byKind[k] = newSample(seed + int64(k) + 1)
	}
	return l
}

func (l *latencies) ok(kind int, d time.Duration) {
	l.all.add(ms(d))
	l.byKind[kind].add(d.Seconds())
}

func (l *latencies) fail() { l.all.add(math.Inf(1)) }

func (l *latencies) merge(o *latencies) {
	l.all.merge(o.all)
	for k := range l.byKind {
		l.byKind[k].merge(o.byKind[k])
	}
}

// setE2E reports the operation-time percentiles and full_geomean_s, the
// geometric mean over kinds of each kind's median operation time.
func (l *latencies) setE2E(r *report) {
	var meds []float64
	var n int64
	for k, s := range l.byKind {
		if s.n > 0 {
			meds = append(meds, median(s.xs))
			n += s.n
			r.note("kind %d: median %.4g ms, p90 %.4g ms over %d", k, meds[len(meds)-1]*1e3, quantile(s.xs, 0.9)*1e3, s.n)
		}
	}
	r.setE2E("full_geomean_s", harness.Geomean(meds))
	r.setE2E("op_time_p50_ms", quantile(l.all.xs, 0.5))
	r.setE2E("op_time_p90_ms", quantile(l.all.xs, 0.90))
	r.samples["full_geomean_s"] = n
	r.samples["op_time_p50_ms"] = l.all.n
	r.samples["op_time_p90_ms"] = l.all.n
}

// workers is the number of concurrent submitters or connections a
// serving workload uses: one per CPU.
func workers() int { return max(runtime.NumCPU(), 1) }
