// Package workloads registers the nine benchmarks of the paper's
// evaluation (§6.3) — plus MicroFan, the repository's own fan-out-heavy
// spawn-floor probe, and the PPSim/PPG graph workload families (which
// also come in session-graph form via their BuildGraph constructors) —
// so the harness, the benchtable command, and the testing.B benches all
// draw from one list.
package workloads

import (
	"repro/internal/core"
	"repro/internal/workloads/conway"
	"repro/internal/workloads/heat"
	"repro/internal/workloads/microfan"
	"repro/internal/workloads/ppg"
	"repro/internal/workloads/ppsim"
	"repro/internal/workloads/qsort"
	"repro/internal/workloads/randomized"
	"repro/internal/workloads/sieve"
	"repro/internal/workloads/smithwaterman"
	"repro/internal/workloads/strassen"
	"repro/internal/workloads/streamcluster"
)

// Scale selects a configuration family.
type Scale int

const (
	// ScaleSmall finishes in milliseconds; used by tests.
	ScaleSmall Scale = iota
	// ScaleDefault finishes in roughly a second per run on a small
	// container; the benchtable default.
	ScaleDefault
	// ScalePaper matches the paper's published parameters.
	ScalePaper
)

// ParseScale maps a flag string to a Scale, defaulting to ScaleDefault.
func ParseScale(s string) Scale {
	switch s {
	case "small":
		return ScaleSmall
	case "paper":
		return ScalePaper
	default:
		return ScaleDefault
	}
}

// Entry is one registered benchmark.
type Entry struct {
	Name string
	// Prog returns a factory producing fresh root TaskFuncs at the given
	// scale.
	Prog func(Scale) func() core.TaskFunc
}

func pick[T any](s Scale, small, def, paper T) T {
	switch s {
	case ScaleSmall:
		return small
	case ScalePaper:
		return paper
	default:
		return def
	}
}

// All returns the nine benchmarks in the paper's Table 1 order, followed
// by the repository's MicroFan spawn-floor probe and the PPSim/PPG graph
// workload families in their single-session form.
func All() []Entry {
	return []Entry{
		{"Conway", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, conway.Small(), conway.Default(), conway.Paper())
			return func() core.TaskFunc { return conway.Main(cfg) }
		}},
		{"Heat", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, heat.Small(), heat.Default(), heat.Paper())
			return func() core.TaskFunc { return heat.Main(cfg) }
		}},
		{"QSort", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, qsort.Small(), qsort.Default(), qsort.Paper())
			return func() core.TaskFunc { return qsort.Main(cfg) }
		}},
		{"Randomized", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, randomized.Small(), randomized.Default(), randomized.Paper())
			return func() core.TaskFunc { return randomized.Main(cfg) }
		}},
		{"Sieve", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, sieve.Small(), sieve.Default(), sieve.Paper())
			return func() core.TaskFunc { return sieve.Main(cfg) }
		}},
		{"SmithWaterman", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, smithwaterman.Small(), smithwaterman.Default(), smithwaterman.Paper())
			return func() core.TaskFunc { return smithwaterman.Main(cfg) }
		}},
		{"Strassen", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, strassen.Small(), strassen.Default(), strassen.Paper())
			return func() core.TaskFunc { return strassen.Main(cfg) }
		}},
		{"StreamCluster", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, streamcluster.Small(), streamcluster.Default(), streamcluster.Paper())
			return func() core.TaskFunc { return streamcluster.Main(cfg) }
		}},
		{"StreamCluster2", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, streamcluster.Small(), streamcluster.Default(), streamcluster.Paper())
			cfg.Variant2 = true
			return func() core.TaskFunc { return streamcluster.Main(cfg) }
		}},
		{"MicroFan", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, microfan.Small(), microfan.Default(), microfan.Paper())
			return func() core.TaskFunc { return microfan.Main(cfg) }
		}},
		{"PPSim", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, ppsim.Small(), ppsim.Default(), ppsim.Paper())
			return func() core.TaskFunc { return ppsim.Main(cfg) }
		}},
		{"PPG", func(s Scale) func() core.TaskFunc {
			cfg := pick(s, ppg.Small(), ppg.Default(), ppg.Paper())
			return func() core.TaskFunc { return ppg.Main(cfg) }
		}},
	}
}

// ByName returns the entry with the given name, or false.
func ByName(name string) (Entry, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
