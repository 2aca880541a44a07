package front

import (
	"sync/atomic"

	"repro/internal/obs"
)

// frontMetrics is the network edge's metric set — all control-plane
// sites (connection setup, admission answers, verdict delivery). The
// reject-reason and verdict label spaces are closed enums from the wire
// schema, and the tenant dimension never appears here at all: tenant
// attribution lives on the serve_* families, already bounded by the
// serving layer's cardinality guard, so a flood of hostile API keys
// grows nothing.
type frontMetrics struct {
	connections  *obs.Counter
	authFailures *obs.Counter
	submitted    *obs.Counter
	rejected     *obs.CounterVec // label: reason (closed set, see wire.go)
	verdicts     *obs.CounterVec // label: verdict
	// verdictsWithAccept counts the verdicts written in one Write with
	// their accept: the session finished before anything else sent the
	// accept. Divided by the sum of front_verdicts_total it is the merged
	// share: the fraction of verdicts that cost no write of their own.
	verdictsWithAccept *obs.Counter
	// acceptsExpired counts the deferred accepts that went alone: the
	// session's workload was marked short, but the session outlived the
	// shortBody timer. A high rate against front_sessions_submitted_total
	// means the short flag misjudges a workload whose bodies alternate
	// between short and long.
	acceptsExpired *obs.Counter

	// Fault-tolerance families. The retry-reason label space is the
	// closed classification set in retry.go.
	retries          *obs.CounterVec // label: reason
	heartbeatsMissed *obs.Counter
	slowEvictions    *obs.Counter
}

var frontMet atomic.Pointer[frontMetrics]

func fmet() *frontMetrics { return frontMet.Load() }

func init() {
	obs.OnInstall(func(reg *obs.Registry) {
		if reg == nil {
			frontMet.Store(nil)
			return
		}
		frontMet.Store(&frontMetrics{
			connections:  reg.Counter("front_connections_total"),
			authFailures: reg.Counter("front_auth_failures_total"),
			submitted:    reg.Counter("front_sessions_submitted_total"),
			rejected:     reg.CounterVec("front_rejected_total", "reason"),
			verdicts:     reg.CounterVec("front_verdicts_total", "verdict"),

			verdictsWithAccept: reg.Counter("front_verdicts_with_accept_total"),
			acceptsExpired:     reg.Counter("front_accepts_expired_total"),

			retries:          reg.CounterVec("front_retries_total", "reason"),
			heartbeatsMissed: reg.Counter("front_heartbeats_missed_total"),
			slowEvictions:    reg.Counter("serve_slow_client_evictions_total"),
		})
	})
}
