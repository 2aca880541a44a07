package graph

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// GraphStats is the package's cumulative orchestration accounting,
// process-wide across every Graph.Run. The same figures feed the obs
// registry when one is installed (graph_nodes_total{state},
// graph_retries_total, graph_admission_retries_total,
// graph_runs_total{result}, and the graph_node_latency_seconds window);
// the struct exists so harnesses can assert them with no registry and
// zero setup.
type GraphStats struct {
	GraphsRun        int64 `json:"graphs_run"`
	GraphsOK         int64 `json:"graphs_ok"`
	NodesSucceeded   int64 `json:"nodes_succeeded"`
	NodesFailed      int64 `json:"nodes_failed"`
	NodesCanceled    int64 `json:"nodes_canceled"`
	Retries          int64 `json:"retries"`
	AdmissionRetries int64 `json:"admission_retries"`
}

var cum struct {
	graphsRun, graphsOK         atomic.Int64
	nodesSucceeded, nodesFailed atomic.Int64
	nodesCanceled               atomic.Int64
	retries, admissionRetries   atomic.Int64
}

// Stats snapshots the cumulative counters.
func Stats() GraphStats {
	return GraphStats{
		GraphsRun:        cum.graphsRun.Load(),
		GraphsOK:         cum.graphsOK.Load(),
		NodesSucceeded:   cum.nodesSucceeded.Load(),
		NodesFailed:      cum.nodesFailed.Load(),
		NodesCanceled:    cum.nodesCanceled.Load(),
		Retries:          cum.retries.Load(),
		AdmissionRetries: cum.admissionRetries.Load(),
	}
}

// graphMetrics is the obs-registry mirror, resolved once at install so
// terminal transitions cost pre-resolved counter increments — the
// standard zero-cost-off pattern: with no registry installed every
// count site below is one atomic pointer load and a branch.
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
	switch s {
	case NodeSucceeded:
		cum.nodesSucceeded.Add(1)
	case NodeFailed:
		cum.nodesFailed.Add(1)
	case NodeCanceled:
		cum.nodesCanceled.Add(1)
	}
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
	cum.retries.Add(1)
	if m := gmet(); m != nil {
		m.retries.Inc()
	}
}

func countAdmissionRetry() {
	cum.admissionRetries.Add(1)
	if m := gmet(); m != nil {
		m.admissionRetries.Inc()
	}
}

// countGraph records one finished Graph.Run.
func countGraph(res *GraphResult) {
	cum.graphsRun.Add(1)
	result := "failed"
	if res.OK() {
		result = "ok"
		cum.graphsOK.Add(1)
	} else if res.Failed == 0 {
		result = "canceled"
	}
	if m := gmet(); m != nil {
		m.runs.With(result).Inc()
	}
}
