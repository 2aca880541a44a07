package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/workloads/ppg"
)

const (
	dagNodes = 32
	// ppgEvery makes every fourth graph of the sequence the PPG ladder
	// and the rest random DAGs, so the operation-time median lies inside
	// the random-DAG mode rather than between the two.
	ppgEvery = 4
	// countedGraphs is how many graphs, from the start of the seed's
	// sequence, graph.node_retries and graph.cascade_canceled sum over,
	// so that both repeat exactly for a seed.
	countedGraphs = 100
	graphWarmup   = 64
)

const (
	kindRandom = iota
	kindPPG
)

// graphRec is one graph run's outcome.
type graphRec struct {
	k          int64
	kind       int
	t0, t1     int64
	cpu        time.Duration // process CPU time over the run
	res        *graph.GraphResult
	mismatches int
	alarms     int64 // detector verdicts the run must have produced
	msg        string
}

// graphSeq builds the k-th graph of a seed's sequence and the check of
// its result against the oracle.
type graphSeq struct {
	seed   int64
	ppgCfg ppg.Config
	ppgRef []float64
	inject string
}

func (s *graphSeq) build(k int64) (*graph.Graph, int, func(*graphRec)) {
	if k%ppgEvery == ppgEvery-1 {
		g, _ := ppg.BuildGraph(s.ppgCfg)
		last := g.Nodes()[g.Len()-1].Name()
		return g, kindPPG, func(r *graphRec) {
			out, ok := r.res.Output(last)
			got, _ := out.([]float64)
			if !ok || len(got) != len(s.ppgRef) {
				r.mismatches++
				r.msg = fmt.Sprintf("ppg: final iterate missing (graph err: %v)", r.res.Err)
				return
			}
			for j := range got {
				if got[j] != s.ppgRef[j] {
					r.mismatches++
					r.msg = fmt.Sprintf("ppg: iterate[%d] = %v, want %v", j, got[j], s.ppgRef[j])
					return
				}
			}
		}
	}
	rd := graph.Random(graph.RandConfig{
		Nodes:        dagNodes,
		FanWidth:     8,
		DoomProb:     0.05,
		FlakyProb:    0.10,
		DeadlockDoom: true,
		Retry:        graph.Retry{MaxAttempts: 2},
		Seed:         s.seed*1_000_003 + k,
	})
	exp := rd.ExpectedStates()
	if s.inject == "oracle" {
		exp["n000"] = graph.NodeFailed
	}
	return rd.Graph, kindRandom, func(r *graphRec) {
		for name, want := range exp {
			nr := r.res.Nodes[name]
			if nr.State != want {
				r.mismatches++
				r.msg = fmt.Sprintf("%s: node %s is %s, oracle says %s", rd.Graph.Name(), name, nr.State, want)
			}
			if nr.Verdict == serve.VerdictDeadlock {
				r.alarms += int64(nr.Attempts)
			}
		}
	}
}

// run executes graph k on pool and checks it.
func (s *graphSeq) run(pool *serve.Pool, clk clock, k int64) *graphRec {
	g, kind, check := s.build(k)
	r := &graphRec{k: k, kind: kind}
	c0 := cpuSeconds()
	r.t0 = clk.now()
	res, _ := g.Run(context.Background(), pool) // a doomed node's failure is expected
	r.t1 = clk.now()
	r.cpu = time.Duration((cpuSeconds() - c0) * 1e9)
	r.res = res
	check(r)
	return r
}

// runGraphDAG runs one graph.Graph at a time on a pool with a session
// slot per CPU: seeded random DAGs with doomed and flaky nodes, and every
// fourth graph a PPG ladder checked bitwise. With a single runner the
// process's CPU time over a Graph.Run is that graph's own cost; with one
// runner per CPU a graph's latency was mostly a wait for the other
// runner's nodes.
func runGraphDAG(cfg config) (*report, error) {
	rep := newReport()
	clk := newClock()
	n := workers()
	seq := &graphSeq{seed: cfg.seed, ppgCfg: ppg.Small(), inject: cfg.inject}
	base := runtime.NumGoroutine()
	pool, setupS, err := timeSetup(func() (*serve.Pool, error) {
		seq.ppgRef = ppg.RunSequential(seq.ppgCfg)
		// The queue holds every node of a graph, so admission never
		// pushes back.
		p := serve.New(serve.WithMaxSessions(n), serve.WithQueueDepth(dagNodes))
		warm := &graphSeq{seed: -cfg.seed - 1, ppgCfg: seq.ppgCfg, ppgRef: seq.ppgRef}
		for k := int64(0); k < graphWarmup; k++ {
			if r := warm.run(p, clk, k); r.mismatches > 0 {
				p.Close()
				return nil, fmt.Errorf("warm-up graph failed its check: %s", r.msg)
			}
		}
		return p, nil
	}, func(p *serve.Pool) { p.Close() })
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", setupS)

	tot := &graphAcc{
		lat:   newLatencies(2, cfg.seed),
		gapMS: newSample(cfg.seed),
		log:   newSpanLog(maxSpans),
	}
	heap := newHeapSampler(1)
	before := snapPool(pool)
	heap.set(0)
	cpu0 := cpuSeconds()
	end := clk.now() + int64(cfg.dur)
	for k := int64(0); clk.now() < end || k < countedGraphs; k++ {
		tot.add(seq.run(pool, clk, k), clk, cfg.trace)
	}
	cpuS := cpuSeconds() - cpu0
	heap.set(-1)
	after := snapPool(pool)
	heapMB := heap.close()
	pool.Close()
	if leaked := settleGoroutines(base); leaked > 0 {
		rep.problem("%d goroutines leaked past Pool.Close", leaked)
	}

	logs := []*spanLog{tot.log}
	rep.attempted = tot.nodes
	rep.failed = tot.mismatches
	for _, m := range tot.msgs {
		rep.problem("%s", m)
	}
	got := after.pool.Deadlocks - before.pool.Deadlocks
	if got != tot.alarms {
		rep.problem("core.alarms %d, want %d (one per deadlock-doomed attempt)", got, tot.alarms)
	}
	if tot.admission != 0 {
		rep.problem("%d admission retries; the pool queue must absorb every node", tot.admission)
	}
	rep.setE2E("heap_mb", heapMB[0])
	rep.setE2E("throughput_per_cpu_s", float64(tot.nodes)/cpuS)
	tot.lat.setE2E(rep)
	if !cfg.trace {
		return rep, nil
	}
	var nodeUS []float64
	eachRequest(logs, func(r request) {
		for _, s := range r {
			if s.layer == spanGraphNode {
				nodeUS = append(nodeUS, us(s.dur()))
			}
		}
	})
	rep.setLayer("graph.node_us.p50", quantile(nodeUS, 0.5))
	rep.setLayer("graph.node_us.p99", quantile(nodeUS, 0.99))
	rep.setLayer("graph.sched_gap_ms.p50", quantile(tot.gapMS.xs, 0.5))
	rep.setLayer("graph.node_retries", float64(tot.retries))
	rep.setLayer("graph.cascade_canceled", float64(tot.canceled))
	rep.setLayer("graph.admission_retries", float64(tot.admission))
	rep.setLayer("graph.oracle_mismatches", float64(tot.mismatches))
	rep.setLayer("core.alarms", float64(got))
	rep.setLayer("failed_frac", float64(rep.failed)/float64(rep.attempted))
	rep.setSched(before, after)
	path, err := writeSpans(cfg.spanDir, cfg.workload, logs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "spans: %s\n", path)
	return rep, nil
}

// graphAcc folds graph results as they complete, so no GraphResult
// outlives its check.
type graphAcc struct {
	nodes, alarms, retries, canceled, admission, mismatches int64

	msgs  notes
	lat   *latencies
	gapMS *sample
	log   *spanLog
}

func (a *graphAcc) add(r *graphRec, clk clock, traced bool) {
	a.nodes += int64(len(r.res.Nodes))
	a.alarms += r.alarms
	a.admission += r.res.AdmissionRetries
	if r.k < countedGraphs {
		a.retries += r.res.Retries
		a.canceled += int64(r.res.Canceled)
	}
	if r.mismatches > 0 {
		a.mismatches += int64(r.mismatches)
		a.lat.fail()
		a.msgs.add("%s", r.msg)
	} else {
		a.lat.ok(r.kind, r.cpu)
	}
	if !traced {
		return
	}
	a.gapMS.add(ms(r.res.Elapsed - r.res.CriticalPathTime))
	if !a.log.room(1 + len(r.res.Nodes)) {
		return
	}
	req := uint32(r.k)
	a.log.add(req, spanGraphRun, spanNone, r.t0, r.t1)
	for _, nr := range r.res.Nodes {
		if nr.Start.IsZero() || nr.End.IsZero() {
			continue // canceled before launch
		}
		a.log.add(req, spanGraphNode, spanGraphRun, clk.at(nr.Start), clk.at(nr.End))
	}
}
