package graph

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// graphMetrics is the package's process-wide orchestration accounting
// (each run's own figures are in its GraphResult): the obs registry's
// graph families, resolved once at install so terminal transitions cost
// pre-resolved counter increments — the standard zero-cost-off pattern:
// with no registry installed every count site below is one atomic
// pointer load and a branch.
type graphMetrics struct {
	nodes            [nodeStateCount]*obs.Counter // graph_nodes_total{state}, terminal states only
	retries          *obs.Counter
	admissionRetries *obs.Counter
	runs             *obs.CounterVec // graph_runs_total{result}
	nodeLat          *obs.Window     // graph_node_latency_seconds
}

var graphMet atomic.Pointer[graphMetrics]

func gmet() *graphMetrics { return graphMet.Load() }

func init() {
	obs.OnInstall(func(reg *obs.Registry) {
		if reg == nil {
			graphMet.Store(nil)
			return
		}
		m := &graphMetrics{
			retries:          reg.Counter("graph_retries_total"),
			admissionRetries: reg.Counter("graph_admission_retries_total"),
			runs:             reg.CounterVec("graph_runs_total", "result"),
			nodeLat:          reg.Window("graph_node_latency_seconds", 0, 0),
		}
		vec := reg.CounterVec("graph_nodes_total", "state")
		for _, s := range []NodeState{NodeSucceeded, NodeFailed, NodeCanceled} {
			m.nodes[s] = vec.With(s.String())
		}
		graphMet.Store(m)
	})
}

// countNode records one terminal node transition; dur is the node's
// first-submit-to-terminal span (zero for cascade-canceled nodes, which
// never ran and contribute no latency sample).
func countNode(s NodeState, dur time.Duration) {
	if m := gmet(); m != nil {
		if c := m.nodes[s]; c != nil {
			c.Inc()
		}
		if dur > 0 {
			m.nodeLat.Observe(obs.Now(), dur)
		}
	}
}

func countRetry() {
	if m := gmet(); m != nil {
		m.retries.Inc()
	}
}

func countAdmissionRetry() {
	if m := gmet(); m != nil {
		m.admissionRetries.Inc()
	}
}

// countGraph records one finished Graph.Run.
func countGraph(res *GraphResult) {
	m := gmet()
	if m == nil {
		return
	}
	result := "failed"
	if res.OK() {
		result = "ok"
	} else if res.Failed == 0 {
		result = "canceled"
	}
	m.runs.With(result).Inc()
}
