package front

import (
	"repro/internal/core"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// Registry maps the workload names a front accepts over the wire to
// session program factories. The default registry is the benchmark
// table (internal/workloads.All) plus "Deadlock", the paper's Listing 1
// two-promise cycle — the canonical true-positive a remote caller uses
// to smoke-test that verdicts actually travel the wire.
type Registry map[string]func(scale workloads.Scale) core.TaskFunc

// DefaultRegistry builds the standard workload registry.
func DefaultRegistry() Registry {
	reg := make(Registry, 12)
	for _, e := range workloads.All() {
		// Session prepares inside the session body, on the pool's worker,
		// not on the connection's read loop that calls the factory.
		reg[e.Name] = e.Session
	}
	reg["Deadlock"] = func(workloads.Scale) core.TaskFunc { return randprog.Listing1 }
	return reg
}
