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

// Body is one prepared run of a workload: it runs under its root task and
// returns the run's checksum. A body may consume its inputs (QSort sorts
// in place), so it runs once.
type Body = func(*core.Task) (uint64, error)

// Entry is one registered benchmark.
type Entry struct {
	Name string
	// Prepare validates the scale's configuration and builds its inputs,
	// returning a fresh body; every run prepares afresh.
	Prepare func(Scale) (Body, error)
	// Want returns the sequential reference of a body's checksum at a
	// scale, or is nil where the package has none.
	Want func(Scale) func() uint64
}

// Session returns a session body that prepares the scale's program and
// runs it, so the preparation runs where the session does rather than
// where it is submitted.
func (e Entry) Session(s Scale) core.TaskFunc {
	return func(t *core.Task) error {
		body, err := e.Prepare(s)
		if err != nil {
			return err
		}
		_, err = body(t)
		return err
	}
}

// Pick returns the configuration of a package's three that scale s
// selects.
func Pick[C any](s Scale, small, def, paper C) C {
	switch s {
	case ScaleSmall:
		return small
	case ScalePaper:
		return paper
	default:
		return def
	}
}

// entry registers a workload package by its three configurations, its
// Prepare and, unless nil, its RunSequential.
func entry[C any](name string, small, def, paper C, prepare func(C) (Body, error), want func(C) uint64) Entry {
	e := Entry{Name: name, Prepare: func(s Scale) (Body, error) { return prepare(Pick(s, small, def, paper)) }}
	if want != nil {
		e.Want = func(s Scale) func() uint64 { return func() uint64 { return want(Pick(s, small, def, paper)) } }
	}
	return e
}

// All returns the nine benchmarks in the paper's Table 1 order, followed
// by the repository's MicroFan spawn-floor probe and the PPSim/PPG graph
// workload families in their single-session form.
func All() []Entry {
	sc2 := func(cfg streamcluster.Config) streamcluster.Config {
		cfg.Variant2 = true
		return cfg
	}
	return []Entry{
		entry("Conway", conway.Small(), conway.Default(), conway.Paper(), conway.Prepare, conway.RunSequential),
		entry("Heat", heat.Small(), heat.Default(), heat.Paper(), heat.Prepare, heat.RunSequential),
		entry("QSort", qsort.Small(), qsort.Default(), qsort.Paper(), qsort.Prepare, qsort.RunSequential),
		entry("Randomized", randomized.Small(), randomized.Default(), randomized.Paper(), randomized.Prepare, nil),
		entry("Sieve", sieve.Small(), sieve.Default(), sieve.Paper(), sieve.Prepare, sieve.RunSequential),
		entry("SmithWaterman", smithwaterman.Small(), smithwaterman.Default(), smithwaterman.Paper(),
			smithwaterman.Prepare, smithwaterman.RunSequential),
		entry("Strassen", strassen.Small(), strassen.Default(), strassen.Paper(), strassen.Prepare, strassen.RunSequential),
		entry("StreamCluster", streamcluster.Small(), streamcluster.Default(), streamcluster.Paper(),
			streamcluster.Prepare, streamcluster.RunSequential),
		entry("StreamCluster2", sc2(streamcluster.Small()), sc2(streamcluster.Default()), sc2(streamcluster.Paper()),
			streamcluster.Prepare, streamcluster.RunSequential),
		entry("MicroFan", microfan.Small(), microfan.Default(), microfan.Paper(), microfan.Prepare, microfan.RunSequential),
		entry("PPSim", ppsim.Small(), ppsim.Default(), ppsim.Paper(), ppsim.Prepare, nil),
		entry("PPG", ppg.Small(), ppg.Default(), ppg.Paper(), ppg.Prepare, nil),
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
