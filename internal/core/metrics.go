package core

import (
	"sync/atomic"

	"repro/internal/obs"
)

// coreMetrics is this package's resolved metric set: every counter the
// runtime's hot paths may touch, registered ONCE when a registry is
// installed (obs.Install) and reached through one atomic pointer load.
// With no registry installed the pointer is nil and every instrumented
// site costs a single predictable branch — the spawn/SetGet fast paths
// stay at their benchtable-pinned budgets, which the spawn-instrumented
// row then re-pins for the installed case.
type coreMetrics struct {
	spawnsScheduled *obs.Counter // startTask spawns (classic executor path)
	spawnsBatch     *obs.Counter // AsyncBatch children
	blocks          *obs.Counter // waits that actually parked (blockOn entries)
	alarmDeadlock   *obs.Counter
	alarmOmitted    *obs.Counter
	alarmOwnership  *obs.Counter
	alarmDoubleSet  *obs.Counter
	alarmOther      *obs.Counter
}

var coreMet atomic.Pointer[coreMetrics]

// cmet returns the installed metric set, or nil when observability is
// off. Call sites follow the pattern
//
//	if m := cmet(); m != nil { m.x.Inc() }
//
// which compiles to one atomic load and a branch on the uninstrumented
// path.
func cmet() *coreMetrics { return coreMet.Load() }

func init() {
	obs.OnInstall(func(reg *obs.Registry) {
		if reg == nil {
			coreMet.Store(nil)
			return
		}
		alarms := reg.CounterVec("core_alarms_total", "class")
		coreMet.Store(&coreMetrics{
			spawnsScheduled: reg.Counter("core_spawns_scheduled_total"),
			spawnsBatch:     reg.Counter("core_spawns_batch_total"),
			blocks:          reg.Counter("core_blocks_total"),
			alarmDeadlock:   alarms.With("deadlock"),
			alarmOmitted:    alarms.With("omitted_set"),
			alarmOwnership:  alarms.With("ownership"),
			alarmDoubleSet:  alarms.With("double_set"),
			alarmOther:      alarms.With("other"),
		})
	})
}

// countAlarm bumps the class counter for err, classifying by concrete
// type exactly as logAlarm does (alarms are raised unwrapped).
func (m *coreMetrics) countAlarm(err error) {
	switch err.(type) {
	case *DeadlockError:
		m.alarmDeadlock.Inc()
	case *OmittedSetError:
		m.alarmOmitted.Inc()
	case *OwnershipError:
		m.alarmOwnership.Inc()
	case *DoubleSetError:
		m.alarmDoubleSet.Inc()
	default:
		m.alarmOther.Inc()
	}
}
