package main

// Graph mode: -graph SHAPE turns loadgen into a DAG-orchestration
// harness over internal/graph. Drivers repeatedly build and run session
// graphs — diamond, wide fan-out, deep chain, seeded random DAGs with
// injected failures and retries, and the PPSim/PPG workload families —
// and every finished graph is audited against its ground truth. Each
// breach is charged to the run's ledger; the package doc lists the
// invariants. The report is merged into the benchtable JSON under a
// "graph" key.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads/ppg"
	"repro/internal/workloads/ppsim"
)

// graphShapes is the rotation used by -graph mixed.
var graphShapes = []string{"diamond", "wide", "chain", "random", "ppsim", "ppg"}

// builtGraph is one graph instance plus its ground truth.
type builtGraph struct {
	g *graph.Graph
	// attempts holds per-node expected attempt counts that differ from 1
	// (the deliberately flaky nodes of healthy shapes).
	attempts map[string]int
	// rd is non-nil for random DAGs: full expected-state verification.
	rd *graph.RandDAG
	// check validates outputs of a healthy graph (nil = no output check).
	check func(*graph.GraphResult) error
}

// graphTally accumulates graph-mode results for the report.
type graphTally struct {
	mu sync.Mutex

	graphs, ok                                 int64
	nodesSucceeded, nodesFailed, nodesCanceled int64
	retries, admissionRetries                  int64

	cascadeChecked int64

	graphLat *harness.Histogram
	nodeLat  *harness.Histogram
	perShape map[string]int64
	led      *ledger
}

// violation charges one invariant breach to the ledger counter n.
func (t *graphTally) violation(n *int64, format string, args ...any) {
	t.led.charge(n, "GRAPH VIOLATION: "+format, args...)
}

// buildGraphShape constructs one instance of the named shape. seed
// varies per run so random DAG topologies differ across iterations
// while staying reproducible from -seed.
func buildGraphShape(cfg config, shape string, seed int64) builtGraph {
	switch shape {
	case "diamond":
		return buildDiamond(seed)
	case "wide":
		return buildWide(cfg)
	case "chain":
		return buildChain(cfg)
	case "random":
		rd := graph.Random(graph.RandConfig{
			Nodes:        cfg.nodes,
			DoomProb:     cfg.failProb,
			FlakyProb:    cfg.flakyProb,
			Retry:        graph.Retry{MaxAttempts: cfg.retries, Backoff: 500 * time.Microsecond},
			FanWidth:     4,
			DeadlockDoom: cfg.mode == "full",
			Seed:         seed,
		})
		return builtGraph{g: rd.Graph, rd: rd}
	case "ppsim":
		c := ppsim.Small()
		switch cfg.scale {
		case "default":
			c = ppsim.Default()
		case "paper":
			c = ppsim.Paper()
		}
		g, check := ppsim.BuildGraph(c)
		return builtGraph{g: g, check: check}
	case "ppg":
		c := ppg.Small()
		switch cfg.scale {
		case "default":
			c = ppg.Default()
		case "paper":
			c = ppg.Paper()
		}
		g, check := ppg.BuildGraph(c)
		return builtGraph{g: g, check: check}
	default:
		panic("unknown graph shape " + shape)
	}
}

// buildDiamond is the README's quickstart shape with a known output.
func buildDiamond(seed int64) builtGraph {
	base := int(seed%1000) + 1
	g := graph.New("diamond")
	g.MustNode("src", func(_ *core.Task, _ graph.Inputs) (any, error) { return base, nil })
	g.MustNode("left", func(_ *core.Task, in graph.Inputs) (any, error) {
		v, err := graph.In[int](in, "src")
		if err != nil {
			return nil, err
		}
		return v * 2, nil
	}, graph.After("src"))
	g.MustNode("right", func(_ *core.Task, in graph.Inputs) (any, error) {
		v, err := graph.In[int](in, "src")
		if err != nil {
			return nil, err
		}
		return v + 1, nil
	}, graph.After("src"))
	g.MustNode("sink", func(_ *core.Task, in graph.Inputs) (any, error) {
		l, err := graph.In[int](in, "left")
		if err != nil {
			return nil, err
		}
		r, err := graph.In[int](in, "right")
		if err != nil {
			return nil, err
		}
		return l + r, nil
	}, graph.After("left", "right"))
	want := 3*base + 1
	return builtGraph{g: g, check: func(res *graph.GraphResult) error {
		out, ok := res.Output("sink")
		if !ok || out.(int) != want {
			return fmt.Errorf("diamond sink = %v (ok=%v), want %d", out, ok, want)
		}
		return nil
	}}
}

// buildWide is one source fanning to nodes-2 middles into one sink.
// Middle m000 is deliberately flaky (fails its first attempt) whenever
// the retry budget allows, so healthy shapes exercise the retry path
// with a known exact attempt count.
func buildWide(cfg config) builtGraph {
	mids := cfg.nodes - 2
	if mids < 1 {
		mids = 1
	}
	g := graph.New("wide")
	g.MustNode("src", func(_ *core.Task, _ graph.Inputs) (any, error) { return 1, nil })
	attempts := map[string]int{}
	names := make([]string, mids)
	want := 0
	for i := 0; i < mids; i++ {
		i := i
		names[i] = fmt.Sprintf("m%03d", i)
		want += 1 + i
		opts := []graph.NodeOption{graph.After("src")}
		var flakeGate atomic.Int64
		flaky := i == 0 && cfg.retries >= 2
		if flaky {
			opts = append(opts, graph.WithRetry(graph.Retry{MaxAttempts: 2, Backoff: time.Millisecond}))
			attempts[names[i]] = 2
		}
		g.MustNode(names[i], func(_ *core.Task, in graph.Inputs) (any, error) {
			if flaky && flakeGate.Add(1) == 1 {
				return nil, fmt.Errorf("wide: injected first-attempt failure on %s", names[i])
			}
			v, err := graph.In[int](in, "src")
			if err != nil {
				return nil, err
			}
			return v + i, nil
		}, opts...)
	}
	g.MustNode("sink", func(_ *core.Task, in graph.Inputs) (any, error) {
		sum := 0
		for _, name := range names {
			v, err := graph.In[int](in, name)
			if err != nil {
				return nil, err
			}
			sum += v
		}
		return sum, nil
	}, graph.After(names...))
	return builtGraph{g: g, attempts: attempts, check: func(res *graph.GraphResult) error {
		out, ok := res.Output("sink")
		if !ok || out.(int) != want {
			return fmt.Errorf("wide sink = %v (ok=%v), want %d", out, ok, want)
		}
		return nil
	}}
}

// buildChain is a deep linear pipeline: each node increments its
// predecessor's value, so the sink output equals the chain length.
func buildChain(cfg config) builtGraph {
	n := cfg.nodes
	if n < 2 {
		n = 2
	}
	g := graph.New("chain")
	prev := ""
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c%03d", i)
		dep := prev
		var opts []graph.NodeOption
		if dep != "" {
			opts = append(opts, graph.After(dep))
		}
		g.MustNode(name, func(_ *core.Task, in graph.Inputs) (any, error) {
			if dep == "" {
				return 1, nil
			}
			v, err := graph.In[int](in, dep)
			if err != nil {
				return nil, err
			}
			return v + 1, nil
		}, opts...)
		prev = name
	}
	last := prev
	return builtGraph{g: g, check: func(res *graph.GraphResult) error {
		out, ok := res.Output(last)
		if !ok || out.(int) != n {
			return fmt.Errorf("chain %s = %v (ok=%v), want %d", last, out, ok, n)
		}
		return nil
	}}
}

// auditGraph verifies one finished graph against its ground truth,
// charging violations to the ledger.
func (t *graphTally) auditGraph(b builtGraph, res *graph.GraphResult, shape string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.graphs++
	t.perShape[shape]++
	t.retries += res.Retries
	t.admissionRetries += res.AdmissionRetries
	t.nodesSucceeded += int64(res.Succeeded)
	t.nodesFailed += int64(res.Failed)
	t.nodesCanceled += int64(res.Canceled)
	t.graphLat.Observe(res.Elapsed)
	for _, nr := range res.Nodes {
		if nr.Duration > 0 {
			t.nodeLat.Observe(nr.Duration)
		}
	}

	// Orphans: every node must be in exactly one terminal state, and the
	// terminal counts must cover the whole graph.
	for name, nr := range res.Nodes {
		if !nr.State.Terminal() {
			t.violation(&t.led.orphans, "%s/%s: node %s left non-terminal (%s)", shape, res.Graph, name, nr.StateName)
		}
	}
	if res.Succeeded+res.Failed+res.Canceled != len(res.Nodes) {
		t.violation(&t.led.orphans, "%s/%s: terminal counts %d+%d+%d do not cover %d nodes",
			shape, res.Graph, res.Succeeded, res.Failed, res.Canceled, len(res.Nodes))
	}

	// Double-runs: exactly-once body accounting. A node that reached a
	// verdict ran its body exactly once per attempt; a cascade-canceled
	// node never ran at all — retries must not double any node's effect.
	for name, nr := range res.Nodes {
		switch nr.State {
		case graph.NodeSucceeded, graph.NodeFailed:
			if nr.BodyRuns != int64(nr.Attempts) {
				t.violation(&t.led.doubleRuns, "%s/%s: node %s ran body %d times over %d attempts",
					shape, res.Graph, name, nr.BodyRuns, nr.Attempts)
			}
		case graph.NodeCanceled:
			if nr.BodyRuns != 0 {
				t.violation(&t.led.doubleRuns, "%s/%s: canceled node %s ran its body %d times",
					shape, res.Graph, name, nr.BodyRuns)
			}
		}
	}

	if b.rd != nil {
		t.auditRandomLocked(b.rd, res, shape)
		return
	}

	// Healthy shapes: every node succeeds with its exact attempt count,
	// and the graph reproduces its known output.
	if !res.OK() {
		t.violation(&t.led.falseStates, "%s/%s: healthy graph did not succeed: %v", shape, res.Graph, res.Err)
		return
	}
	for name, nr := range res.Nodes {
		want := 1
		if b.attempts != nil && b.attempts[name] > 0 {
			want = b.attempts[name]
		}
		if nr.State != graph.NodeSucceeded || nr.Attempts != want {
			t.violation(&t.led.falseStates, "%s/%s: node %s state=%s attempts=%d, want succeeded/%d",
				shape, res.Graph, name, nr.StateName, nr.Attempts, want)
		}
	}
	if b.check != nil {
		if err := b.check(res); err != nil {
			t.violation(&t.led.falseStates, "%s/%s: %v", shape, res.Graph, err)
		}
	}
}

// auditRandomLocked verifies a random DAG against its deterministic
// ground truth: expected terminal state per node, retry budgets, blame
// rooting, and complete cascade coverage. Caller holds t.mu.
func (t *graphTally) auditRandomLocked(rd *graph.RandDAG, res *graph.GraphResult, shape string) {
	exp := rd.ExpectedStates()
	maxA := rd.Cfg.Retry.MaxAttempts
	for name, want := range exp {
		nr, found := res.Nodes[name]
		if !found {
			t.violation(&t.led.orphans, "%s/%s: node %s missing from result", shape, res.Graph, name)
			continue
		}
		if nr.State != want {
			t.violation(&t.led.falseStates, "%s/%s: node %s state %s, want %s (doomed=%v flaky=%v err=%v)",
				shape, res.Graph, name, nr.StateName, want, rd.Doomed[name], rd.Flaky[name], nr.Err)
			continue
		}
		switch {
		case nr.State == graph.NodeCanceled:
			var up *graph.ErrUpstream
			if !errors.As(nr.Err, &up) || !rd.Doomed[up.Node] {
				t.violation(&t.led.falseStates, "%s/%s: canceled node %s err %v, want ErrUpstream rooted at a doomed node",
					shape, res.Graph, name, nr.Err)
			}
		case rd.Doomed[name] || rd.Flaky[name]:
			if nr.Attempts != maxA {
				t.violation(&t.led.falseStates, "%s/%s: node %s attempts %d, want full budget %d",
					shape, res.Graph, name, nr.Attempts, maxA)
			}
		default:
			if nr.Attempts != 1 {
				t.violation(&t.led.falseStates, "%s/%s: healthy node %s took %d attempts", shape, res.Graph, name, nr.Attempts)
			}
		}
	}
	// Cascade coverage: every transitive descendant of every node that
	// terminally failed must have been canceled.
	for name := range rd.Doomed {
		if res.Nodes[name].State != graph.NodeFailed {
			continue // canceled by an upstream doom before it could fail
		}
		for _, desc := range rd.Descendants(name) {
			t.cascadeChecked++
			if st := res.Nodes[desc].State; st != graph.NodeCanceled {
				t.violation(&t.led.cascadeMisses, "%s/%s: %s failed but descendant %s is %s",
					shape, res.Graph, name, desc, st)
			}
		}
	}
}

// graphReport is the "graph" section written to the JSON output.
type graphReport struct {
	GeneratedAt string  `json:"generated_at"`
	Shape       string  `json:"shape"`
	Sessions    int     `json:"sessions"`
	Queue       int     `json:"queue"`
	Drivers     int     `json:"drivers"`
	Duration    string  `json:"duration"`
	Scale       string  `json:"scale"`
	Mode        string  `json:"mode"`
	Nodes       int     `json:"nodes"`
	FailProb    float64 `json:"fail_prob"`
	FlakyProb   float64 `json:"flaky_prob"`
	RetryBudget int     `json:"retry_budget"`
	ChaosRate   float64 `json:"chaos_rate"`

	GraphsRun      int64            `json:"graphs_run"`
	GraphsOK       int64            `json:"graphs_ok"`
	PerShape       map[string]int64 `json:"per_shape"`
	NodesSucceeded int64            `json:"nodes_succeeded"`
	NodesFailed    int64            `json:"nodes_failed"`
	NodesCanceled  int64            `json:"nodes_canceled"`
	NodeRetries    int64            `json:"node_retries"`
	AdmissionRetry int64            `json:"admission_retries"`
	ChaosInjected  int64            `json:"chaos_injected"`

	Orphans        int64 `json:"orphans"`
	DoubleRuns     int64 `json:"double_runs"`
	FalseStates    int64 `json:"false_states"`
	CascadeChecked int64 `json:"cascade_checked"`
	CascadeMisses  int64 `json:"cascade_misses"`
	LeakedGor      int   `json:"leaked_goroutines"`

	GraphLatency harness.HistSummary `json:"graph_latency"`
	NodeLatency  harness.HistSummary `json:"node_latency"`
	Stats        graph.GraphStats    `json:"cumulative"`
	Pool         serve.PoolStats     `json:"pool"`
}

// runGraph is the -graph entry point.
func runGraph(cfg config, led *ledger) error {
	shapes := []string{cfg.graphShape}
	if cfg.graphShape == "mixed" {
		shapes = graphShapes
	}
	var inj *chaos.Injector
	if cfg.chaosRate > 0 {
		inj = chaos.New(cfg.chaosSeed)
		// Graph mode injects at the only edge it owns: admission. Forced
		// ErrPoolSaturated rejections exercise the graph's submit-side
		// retry loop, which must absorb them without consuming attempts.
		inj.SetRate(chaos.PoolSaturate, cfg.chaosRate)
	}

	fmt.Fprintf(os.Stderr, "loadgen: graph mode: shape=%s nodes=%d fail=%g flaky=%g retries=%d drivers=%d sessions=%d queue=%d chaos=%g %v\n",
		cfg.graphShape, cfg.nodes, cfg.failProb, cfg.flakyProb, cfg.retries, cfg.graphDrivers, cfg.sessions, cfg.queue, cfg.chaosRate, cfg.dur)

	goroutinesBefore := runtime.NumGoroutine()
	pool := serve.NewPool(serve.Config{
		MaxSessions: cfg.sessions,
		QueueDepth:  cfg.queue,
		Runtime:     cfg.runtime,
		Chaos:       inj,
	})

	tally := &graphTally{
		graphLat: harness.NewHistogram(),
		nodeLat:  harness.NewHistogram(),
		perShape: map[string]int64{},
		led:      led,
	}
	deadline := time.Now().Add(cfg.dur)
	start := time.Now()
	var runIdx atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < cfg.graphDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(d)*7901))
			for time.Now().Before(deadline) {
				idx := runIdx.Add(1)
				shape := shapes[rng.Intn(len(shapes))]
				b := buildGraphShape(cfg, shape, cfg.seed+idx*1000)
				res, err := b.g.Run(context.Background(), pool)
				if res == nil {
					led.charge(&led.falseStates, "GRAPH VIOLATION: %s run returned nil result: %v", shape, err)
					continue
				}
				if res.OK() {
					tally.mu.Lock()
					tally.ok++
					tally.mu.Unlock()
				}
				tally.auditGraph(b, res, shape)
			}
		}(d)
	}
	wg.Wait()
	pool.Close()
	elapsed := time.Since(start)
	// As in closed-loop mode, nothing the pool or the graphs started may
	// outlive Close.
	led.leaked = settleLeaks(runtime.NumGoroutine, goroutinesBefore, leakWindow)

	ps := pool.Stats()
	led.graphs, led.eventsDropped = tally.graphs, ps.EventsDropped
	var chaosInjected int64
	if inj != nil {
		// Each forced saturation is absorbed as one admission retry.
		chaosInjected = inj.Total()
		led.equal("chaos injections vs admission retries", chaosInjected, tally.admissionRetries)
	}
	if reg := obs.Installed(); reg != nil {
		c := reg.Snapshot().Counters
		led.equal("registry graph_retries_total vs node_retries", c["graph_retries_total"], tally.retries)
		led.equal("registry graph_admission_retries_total vs admission_retries", c["graph_admission_retries_total"], tally.admissionRetries)
	}
	gsum := tally.graphLat.Summary()
	nsum := tally.nodeLat.Summary()
	fmt.Printf("graph load report: %d graphs (%d ok) in %v (%.1f graphs/s)\n\n",
		tally.graphs, tally.ok, elapsed.Round(time.Millisecond), float64(tally.graphs)/elapsed.Seconds())
	fmt.Printf("nodes: %d succeeded, %d failed, %d canceled; %d node retries, %d admission retries, %d chaos injections\n",
		tally.nodesSucceeded, tally.nodesFailed, tally.nodesCanceled, tally.retries, tally.admissionRetries, chaosInjected)
	fmt.Printf("graph latency: p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms | node latency: p50=%.3fms p99=%.3fms\n",
		gsum.P50Ms, gsum.P90Ms, gsum.P99Ms, gsum.MaxMs, nsum.P50Ms, nsum.P99Ms)
	fmt.Printf("invariants: %d orphans, %d double-runs, %d false states, %d cascade misses (%d descendants checked)\n",
		led.orphans, led.doubleRuns, led.falseStates, led.cascadeMisses, tally.cascadeChecked)
	fmt.Printf("pool: peak %d in-flight, %d completed, %d rejected, %d dropped events\n",
		ps.Peak, ps.Completed, ps.Rejected, ps.EventsDropped)
	fmt.Printf("goroutines: %d before, %d leaked after Close\n", goroutinesBefore, led.leaked)

	if cfg.jsonOut == "" {
		return nil
	}
	rep := graphReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Shape:       cfg.graphShape,
		Sessions:    cfg.sessions,
		Queue:       cfg.queue,
		Drivers:     cfg.graphDrivers,
		Duration:    cfg.dur.String(),
		Scale:       cfg.scale,
		Mode:        cfg.mode,
		Nodes:       cfg.nodes,
		FailProb:    cfg.failProb,
		FlakyProb:   cfg.flakyProb,
		RetryBudget: cfg.retries,
		ChaosRate:   cfg.chaosRate,

		GraphsRun:      tally.graphs,
		GraphsOK:       tally.ok,
		PerShape:       tally.perShape,
		NodesSucceeded: tally.nodesSucceeded,
		NodesFailed:    tally.nodesFailed,
		NodesCanceled:  tally.nodesCanceled,
		NodeRetries:    tally.retries,
		AdmissionRetry: tally.admissionRetries,
		ChaosInjected:  chaosInjected,

		Orphans:        led.orphans,
		DoubleRuns:     led.doubleRuns,
		FalseStates:    led.falseStates,
		CascadeChecked: tally.cascadeChecked,
		CascadeMisses:  led.cascadeMisses,
		LeakedGor:      led.leaked,

		GraphLatency: gsum,
		NodeLatency:  nsum,
		Stats:        graph.Stats(),
		Pool:         ps,
	}
	if err := writeJSONSection(cfg.jsonOut, "graph", rep); err != nil {
		return fmt.Errorf("writing %s: %w", cfg.jsonOut, err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: graph report written to %s\n", cfg.jsonOut)
	return nil
}
