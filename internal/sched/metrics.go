package sched

import (
	"sync/atomic"

	"repro/internal/obs"
)

// schedMetrics is the scheduler's resolved metric set, shared by every
// Elastic in the process (a serving deployment runs one pool); the depth
// gauge mirrors SchedStats.Pending. Same contract as core's set: nil
// pointer when observability is off, one padded-atomic add per event.
type schedMetrics struct {
	wakes *obs.Counter
	parks *obs.Counter
	depth *obs.Gauge // queued-but-unclaimed jobs
}

var schedMet atomic.Pointer[schedMetrics]

func smet() *schedMetrics { return schedMet.Load() }

func init() {
	obs.OnInstall(func(reg *obs.Registry) {
		if reg == nil {
			schedMet.Store(nil)
			return
		}
		schedMet.Store(&schedMetrics{
			wakes: reg.Counter("sched_wakes_total"),
			parks: reg.Counter("sched_parks_total"),
			depth: reg.Gauge("sched_queue_depth"),
		})
	})
}
