package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/workloads"
)

func init() { stderr = io.Discard }

// shortRun runs one workload briefly at small scale.
func shortRun(t *testing.T, workload string, trace bool, inject string) (*result, error) {
	t.Helper()
	return run(config{
		workload: workload,
		seed:     1,
		dur:      300 * time.Millisecond,
		trace:    trace,
		scale:    workloads.ScaleSmall,
		spanDir:  t.TempDir(),
		inject:   inject,
	})
}

func workloadNames() []string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := shortRun(t, w, trace, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, d.name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
		}
	}
}

// A wrong output must fail the run: either set-up refuses to go on, or
// the result reads correct=false with failed operations.
func TestInjectedFaultsFailTheRun(t *testing.T) {
	for _, tc := range []struct{ workload, inject string }{
		{"table1", "checksum"},
		{"pool-closed", "verdict"},
		{"front-closed", "verdict"},
		{"graph-dag", "oracle"},
	} {
		if _, ok := workloadFuncs[tc.workload]; !ok {
			t.Fatalf("no workload %q", tc.workload)
		}
		res, err := shortRun(t, tc.workload, false, tc.inject)
		if err == nil && (res.Correct || res.Failed == 0) {
			t.Errorf("%s with injected %s: correct=%v failed=%d, want a failed run", tc.workload, tc.inject, res.Correct, res.Failed)
		}
	}
}

// The work counts a traced run reports must repeat exactly for a seed.
func TestCountsRepeatForASeed(t *testing.T) {
	for _, tc := range []struct {
		workload string
		names    []string
	}{
		{"table1", func() []string {
			var out []string
			for _, p := range table1Programs {
				out = append(out, "core.tasks."+p, "core.promise_ops."+p)
			}
			return out
		}()},
		{"graph-dag", []string{"graph.node_retries", "graph.cascade_canceled"}},
	} {
		a, err := shortRun(t, tc.workload, true, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := shortRun(t, tc.workload, true, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range tc.names {
			if a.Metrics[n].Value != b.Metrics[n].Value || a.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s read %v then %v", tc.workload, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics
// perfbench reports, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) || func() bool {
		for i := range got {
			if got[i] != want[i] {
				return true
			}
		}
		return false
	}() {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", got, want)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.decl) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, perfbench has %d", len(c.decl), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if e := c.decl[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, perfbench has %+v", i, e, d)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, math.Inf(1)}, 0.99); got != math.MaxFloat64 {
		t.Errorf("p99 with a failure = %v, want MaxFloat64", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %v, want 60ns", got)
	}
}
