package trace

import (
	"sync/atomic"

	"repro/internal/obs"
)

// traceMetrics is the trace subsystem's resolved metric set, shared by
// every Collector in the process: events delivered to sinks,
// staged-batch flushes (EmitStamped calls — the staging protocol's
// amortization unit), and drops. Drops mirror the per-collector
// Dropped() counter (events emitted after Close) so a caller that
// breaks the quiesce-before-close contract shows up on a scrape without
// anyone polling sessions. Nil when observability is off (one atomic
// load + branch per site); single padded-atomic adds when on.
type traceMetrics struct {
	emitted *obs.Counter
	flushes *obs.Counter
	drops   *obs.Counter
}

var traceMet atomic.Pointer[traceMetrics]

func tmet() *traceMetrics { return traceMet.Load() }

func init() {
	obs.OnInstall(func(reg *obs.Registry) {
		if reg == nil {
			traceMet.Store(nil)
			return
		}
		traceMet.Store(&traceMetrics{
			emitted: reg.Counter("trace_events_emitted_total"),
			flushes: reg.Counter("trace_staged_flushes_total"),
			drops:   reg.Counter("trace_events_dropped_total"),
		})
	})
}
