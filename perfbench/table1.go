package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
	"repro/internal/workloads/conway"
	"repro/internal/workloads/heat"
	"repro/internal/workloads/qsort"
	"repro/internal/workloads/randomized"
	"repro/internal/workloads/sieve"
	"repro/internal/workloads/smithwaterman"
	"repro/internal/workloads/strassen"
	"repro/internal/workloads/streamcluster"
)

// program is one Table-1 benchmark: its parallel run under a task and
// its sequential reference checksum (nil for Randomized, whose checksum
// must instead agree across modes and repetitions).
type program struct {
	name string
	run  func(t *core.Task) (uint64, error)
	seq  func() uint64
}

func pick[T any](s workloads.Scale, small, def T) T {
	if s == workloads.ScaleSmall {
		return small
	}
	return def
}

// table1Set builds the nine programs at the given scale, in
// table1Programs order.
func table1Set(s workloads.Scale) []program {
	cw := pick(s, conway.Small(), conway.Default())
	ht := pick(s, heat.Small(), heat.Default())
	qs := pick(s, qsort.Small(), qsort.Default())
	rz := pick(s, randomized.Small(), randomized.Default())
	sv := pick(s, sieve.Small(), sieve.Default())
	sw := pick(s, smithwaterman.Small(), smithwaterman.Default())
	st := pick(s, strassen.Small(), strassen.Default())
	sc := pick(s, streamcluster.Small(), streamcluster.Default())
	sc2 := sc
	sc2.Variant2 = true
	return []program{
		{"Conway", func(t *core.Task) (uint64, error) { return conway.Run(t, cw) }, func() uint64 { return conway.RunSequential(cw) }},
		{"Heat", func(t *core.Task) (uint64, error) { return heat.Run(t, ht) }, func() uint64 { return heat.RunSequential(ht) }},
		{"QSort", func(t *core.Task) (uint64, error) { return qsort.Run(t, qs) }, func() uint64 { return qsort.RunSequential(qs) }},
		{"Randomized", func(t *core.Task) (uint64, error) { return randomized.Run(t, rz) }, nil},
		{"Sieve", func(t *core.Task) (uint64, error) { return sieve.Run(t, sv) }, func() uint64 { return sieve.RunSequential(sv) }},
		{"SmithWaterman", func(t *core.Task) (uint64, error) { return smithwaterman.Run(t, sw) }, func() uint64 { return smithwaterman.RunSequential(sw) }},
		{"Strassen", func(t *core.Task) (uint64, error) { return strassen.Run(t, st) }, func() uint64 { return strassen.RunSequential(st) }},
		{"StreamCluster", func(t *core.Task) (uint64, error) { return streamcluster.Run(t, sc) }, func() uint64 { return streamcluster.RunSequential(sc) }},
		{"StreamCluster2", func(t *core.Task) (uint64, error) { return streamcluster.Run(t, sc2) }, func() uint64 { return streamcluster.RunSequential(sc2) }},
	}
}

// minRounds is the fewest measured rounds a table1 run makes, so every
// per-program median rests on at least three runs per mode.
const minRounds = 3

// table1Run is the state of one table1 invocation.
type table1Run struct {
	cfg   config
	progs []program
	refs  []uint64
	known []bool // refs[i] is set
	rep   *report
	clk   clock
	log   *spanLog
	heap  *heapSampler
	runs  uint32

	// traced-run accumulators, per mode (0 Full, 1 Unverified)
	allocBytes [2]float64
	gcCycles   [2]float64
}

var table1Modes = [2]core.Mode{core.Full, core.Unverified}

// runTable1 runs the paper's nine Table-1 programs on bare runtimes,
// each under Full (lock-free detector) and under Unverified, the two
// modes interleaved in a seeded order, and checks every checksum.
func runTable1(cfg config) (*report, error) {
	progs := table1Set(cfg.scale)
	refs, setupS, err := timeSetup(func() ([]uint64, error) {
		refs := make([]uint64, len(progs))
		for i, p := range progs {
			if p.seq != nil {
				refs[i] = p.seq()
			}
		}
		return refs, nil
	}, func([]uint64) {})
	if err != nil {
		return nil, err
	}
	tr := &table1Run{cfg: cfg, progs: progs, refs: refs, known: make([]bool, len(progs)), rep: newReport(), clk: newClock(), log: newSpanLog(maxSpans)}
	for i, p := range progs {
		tr.known[i] = p.seq != nil
	}
	if cfg.inject == "checksum" {
		tr.refs[0] ^= 1
	}
	rep := tr.rep
	rep.setE2E("setup_s", setupS)

	// Warm-up: one run of every program under each mode, checked but
	// not timed. It also fixes Randomized's reference checksum.
	for i := range progs {
		for m := range table1Modes {
			tr.runOnce(i, m)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var walls, cpus [2][][]float64 // [mode][program] -> seconds per run
	for m := range table1Modes {
		walls[m], cpus[m] = make([][]float64, len(progs)), make([][]float64, len(progs))
	}
	var perRound []float64 // runs per CPU second, per round
	tr.heap = newHeapSampler(2)
	start := time.Now()
	rounds := 0
	for ; rounds < minRounds || time.Since(start) < cfg.dur; rounds++ {
		roundCPU := 0.0
		for _, i := range rng.Perm(len(progs)) {
			order := [2]int{0, 1}
			if rng.Intn(2) == 1 {
				order = [2]int{1, 0}
			}
			for _, m := range order {
				wall, cpu := tr.runOnce(i, m)
				walls[m][i] = append(walls[m][i], wall)
				cpus[m][i] = append(cpus[m][i], cpu)
				roundCPU += cpu
			}
		}
		perRound = append(perRound, float64(2*len(progs))/roundCPU)
	}
	heapMB := tr.heap.close()

	// The end-to-end times are CPU times: a run takes both CPUs and waits
	// at every join for the slower one, so while the host took a tenth to
	// a third of the CPUs away (steal), wall-clock run times grew by up
	// to 70% and their CPU times by under 15%. The percentiles run over
	// the programs' median times (both modes): over the runs themselves,
	// each program holds a ninth of the mass, so the p90 would sit on the
	// edge between the two slowest programs and jump with the number of
	// rounds. The per-layer run times and overheads are wall-clock, as in
	// the paper.
	var meds, cpuMeds [2][]float64
	var progMS []float64
	for i := range progs {
		for m := range table1Modes {
			meds[m] = append(meds[m], median(walls[m][i]))
			cpuMeds[m] = append(cpuMeds[m], median(cpus[m][i]))
		}
		both := append(append([]float64(nil), cpus[0][i]...), cpus[1][i]...)
		progMS = append(progMS, median(both)*1e3)
		rep.note("%-14s median ms, Full / Unverified: wall %.4g / %.4g, CPU %.4g / %.4g", progs[i].name,
			meds[0][i]*1e3, meds[1][i]*1e3, cpuMeds[0][i]*1e3, cpuMeds[1][i]*1e3)
	}
	rep.setE2E("full_geomean_s", harness.Geomean(cpuMeds[0]))
	rep.setE2E("heap_mb", heapMB[0])
	rep.setE2E("throughput_per_cpu_s", median(perRound))
	rep.setE2E("op_time_p50_ms", quantile(progMS, 0.5))
	rep.setE2E("op_time_p90_ms", quantile(progMS, 0.90))
	runs := int64(2 * len(progs) * rounds)
	rep.samples["op_time_p50_ms"] = runs
	rep.samples["op_time_p90_ms"] = runs
	rep.samples["full_geomean_s"] = runs / 2
	if !cfg.trace {
		return rep, nil
	}

	var overheads []float64
	for i, p := range progs {
		rep.setLayer("core.run_ms.full."+p.name, meds[0][i]*1e3)
		rep.setLayer("core.run_ms.unverified."+p.name, meds[1][i]*1e3)
		overheads = append(overheads, meds[0][i]/meds[1][i])
		rep.setLayer("core.overhead_x."+p.name, overheads[i])
	}
	rep.setLayer("core.overhead_x", harness.Geomean(overheads))
	rep.setLayer("core.unverified_geomean_s", harness.Geomean(cpuMeds[1]))
	rep.setLayer("core.mem_overhead_x", heapMB[0]/heapMB[1])
	rep.setLayer("core.alloc_mb.full", tr.allocBytes[0]/float64(rounds)/(1<<20))
	rep.setLayer("core.alloc_mb.unverified", tr.allocBytes[1]/float64(rounds)/(1<<20))
	rep.setLayer("core.gc_cycles.full", tr.gcCycles[0]/float64(rounds))
	rep.setLayer("failed_frac", float64(rep.failed)/float64(rep.attempted))
	if err := tr.countWork(); err != nil {
		return nil, err
	}
	if err := tr.measureOps(); err != nil {
		return nil, err
	}
	path, err := writeSpans(cfg.spanDir, cfg.workload, []*spanLog{tr.log})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "spans: %s\n", path)
	return rep, nil
}

// runOnce runs program i on a fresh runtime in mode table1Modes[m],
// checks its checksum, and returns the run's wall-clock and CPU times in
// seconds (both +Inf when the run failed its check).
func (tr *table1Run) runOnce(i, m int) (wall, cpu float64) {
	p := tr.progs[i]
	rt := core.NewRuntime(core.WithMode(table1Modes[m]), core.WithDetector(core.DetectLockFree))
	var sum uint64
	body := func(t *core.Task) error {
		v, err := p.run(t)
		sum = v
		return err
	}
	// Start every run from a collected heap, so allocation-heavy
	// programs do not inherit GC pacing from whatever ran before.
	runtime.GC()
	var alloc0, gc0 float64
	if tr.cfg.trace {
		alloc0, gc0 = readMetric(metricAllocBytes), readMetric(metricGCCycles)
	}
	if tr.heap != nil {
		tr.heap.set(m)
	}
	c0 := cpuSeconds()
	t0 := tr.clk.now()
	err := rt.Run(body)
	t1 := tr.clk.now()
	cpu = cpuSeconds() - c0
	if tr.heap != nil {
		tr.heap.set(-1)
	}
	if tr.cfg.trace {
		tr.allocBytes[m] += readMetric(metricAllocBytes) - alloc0
		tr.gcCycles[m] += readMetric(metricGCCycles) - gc0
		tr.runs++
		tr.log.add(tr.runs, spanRuntimeRun, spanNone, t0, t1)
	}
	tr.rep.attempted++
	switch {
	case err != nil:
		tr.rep.failed++
		tr.rep.problem("%s/%s: %v", p.name, table1Modes[m], err)
		return math.Inf(1), math.Inf(1)
	case !tr.known[i]:
		tr.refs[i], tr.known[i] = sum, true
	case sum != tr.refs[i]:
		tr.rep.failed++
		tr.rep.problem("%s/%s: checksum %d, want %d", p.name, table1Modes[m], sum, tr.refs[i])
		return math.Inf(1), math.Inf(1)
	}
	return float64(t1-t0) / 1e9, cpu
}

// countWork runs every program once more under Full with event counting
// on, outside the timed runs, for the task and promise-op counts. Both
// repeat exactly for a given program and scale.
func (tr *table1Run) countWork() error {
	for _, p := range tr.progs {
		rt := core.NewRuntime(core.WithMode(core.Full), core.WithDetector(core.DetectLockFree), core.WithEventCounting(true))
		if err := rt.Run(func(t *core.Task) error { _, err := p.run(t); return err }); err != nil {
			return fmt.Errorf("counting run of %s: %w", p.name, err)
		}
		st := rt.Stats()
		tr.rep.setLayer("core.tasks."+p.name, float64(st.Tasks))
		tr.rep.setLayer("core.promise_ops."+p.name, float64(st.Gets+st.Sets))
	}
	return nil
}

// measureOps times the promise-op rung under Full: a Get on a fulfilled
// promise, a NewPromise/Set/Get round trip, and a spawn joined through a
// moved promise, each the median of five timed loops.
func (tr *table1Run) measureOps() error {
	ops := []struct {
		name    string
		iters   int
		fixture func(*core.Task) (func(int) error, error)
	}{
		{"core.op.fulfilled_get_ns", 1_000_000, harness.FulfilledGetFixture},
		{"core.op.setget_ns", 200_000, harness.SetGetFixture},
		{"core.op.spawn_ns", 50_000, harness.SpawnFixture},
	}
	if tr.cfg.scale == workloads.ScaleSmall {
		for i := range ops {
			ops[i].iters /= 100
		}
	}
	for _, op := range ops {
		var per []float64
		rt := core.NewRuntime(core.WithMode(core.Full), core.WithDetector(core.DetectLockFree))
		err := rt.Run(func(t *core.Task) error {
			step, err := op.fixture(t)
			if err != nil {
				return err
			}
			for rep := 0; rep < 6; rep++ { // the first loop warms up
				start := time.Now()
				for i := 0; i < op.iters; i++ {
					if err := step(i); err != nil {
						return err
					}
				}
				if rep > 0 {
					per = append(per, float64(time.Since(start).Nanoseconds())/float64(op.iters))
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		tr.rep.setLayer(op.name, median(per))
	}
	return nil
}
