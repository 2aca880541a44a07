package graph_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

func newTestPool(t *testing.T, max int) *serve.Pool {
	t.Helper()
	pool := serve.New(
		serve.WithMaxSessions(max),
		serve.WithQueueDepth(64),
		serve.WithRuntime(core.WithMode(core.Full)),
	)
	t.Cleanup(pool.Close)
	return pool
}

// constNode returns v; sumNode doubles/propagates typed inputs — the
// bread-and-butter dataflow bodies the diamond test wires together.
func constNode(v int) graph.NodeFunc {
	return func(_ *core.Task, _ graph.Inputs) (any, error) { return v, nil }
}

func waitInFlight(t *testing.T, p *serve.Pool, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().InFlight == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight never reached %d (now %d)", want, p.Stats().InFlight)
}

// blockUntilCanceled never succeeds: the root waits on a promise only
// fulfilled when the session's cancellation scope ends, so the session's
// only outcome is VerdictCanceled (same shape as serve's cancel tests).
func blockUntilCanceled(root *core.Task) error {
	p := core.NewPromise[int](root)
	if _, err := root.Async(func(c *core.Task) error {
		for c.Context().Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(20 * time.Millisecond)
		return p.Set(c, 0)
	}, p); err != nil {
		return err
	}
	_, err := p.Get(root)
	return err
}

// installRegistry makes a fresh registry the process-wide one for the
// test, so the graph_* counters it reads start at zero.
func installRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.Install(reg)
	t.Cleanup(func() { obs.Install(nil) })
	return reg
}

func TestDiamondDataflow(t *testing.T) {
	reg := installRegistry(t)
	pool := newTestPool(t, 4)

	g := graph.New("diamond")
	g.MustNode("src", constNode(21))
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
	sink := g.MustNode("sink", func(_ *core.Task, in graph.Inputs) (any, error) {
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

	res, err := g.Run(t.Context(), pool)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK() || res.Succeeded != 4 || res.Failed != 0 || res.Canceled != 0 {
		t.Fatalf("result not clean: %+v", res)
	}
	out, ok := res.Output("sink")
	if !ok || out.(int) != 64 {
		t.Fatalf("sink output = %v (ok=%v), want 64", out, ok)
	}
	v, ferr := sink.Future().Value()
	if ferr != nil || v.(int) != 64 {
		t.Fatalf("sink future = %v, %v; want 64", v, ferr)
	}
	for name, nr := range res.Nodes {
		if nr.Attempts != 1 || nr.BodyRuns != 1 {
			t.Fatalf("node %s attempts=%d bodyRuns=%d, want 1/1", name, nr.Attempts, nr.BodyRuns)
		}
		if nr.Verdict != serve.VerdictClean {
			t.Fatalf("node %s verdict %s, want clean", name, nr.Verdict)
		}
	}
	if len(res.CriticalPath) != 3 || res.CriticalPath[len(res.CriticalPath)-1] != "sink" {
		t.Fatalf("critical path %v, want 3 hops ending at sink", res.CriticalPath)
	}

	snap := reg.Snapshot()
	if runs := snap.Vectors["graph_runs_total"]; runs["result=ok"] != 1 || len(runs) != 1 {
		t.Fatalf("graph_runs_total %v, want one ok run", runs)
	}
	if nodes := snap.Vectors["graph_nodes_total"]; nodes["state=succeeded"] != 4 {
		t.Fatalf("graph_nodes_total %v, want 4 succeeded", nodes)
	}

	// Graphs are single-shot.
	if _, err := g.Run(t.Context(), pool); err == nil {
		t.Fatal("second Run did not error")
	}
}

// TestGraphObsCounters checks the graph_* registry families against one
// run's own result: a diamond whose left arm is doomed (two attempts,
// then terminal failure) cancels the sink, and graph_runs_total{result},
// graph_nodes_total{state} and the retry counters advance by exactly
// the counts the GraphResult reports.
func TestGraphObsCounters(t *testing.T) {
	reg := installRegistry(t)
	pool := newTestPool(t, 4)
	boom := errors.New("boom")

	g := graph.New("doomed-diamond")
	g.MustNode("src", constNode(1))
	g.MustNode("left", func(_ *core.Task, _ graph.Inputs) (any, error) {
		return nil, boom
	}, graph.After("src"), graph.WithRetry(graph.Retry{MaxAttempts: 2}))
	g.MustNode("right", constNode(2), graph.After("src"))
	g.MustNode("sink", constNode(3), graph.After("left", "right"))

	res, err := g.Run(t.Context(), pool)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error %v, want boom", err)
	}
	if res.Succeeded != 2 || res.Failed != 1 || res.Canceled != 1 || res.Retries != 1 {
		t.Fatalf("result %d/%d/%d, %d retries; want 2 succeeded, 1 failed, 1 canceled, 1 retry",
			res.Succeeded, res.Failed, res.Canceled, res.Retries)
	}

	snap := reg.Snapshot()
	runs := snap.Vectors["graph_runs_total"]
	if runs["result=failed"] != 1 || len(runs) != 1 {
		t.Errorf("graph_runs_total %v, want exactly one failed run", runs)
	}
	nodes := snap.Vectors["graph_nodes_total"]
	for state, want := range map[string]int{"succeeded": res.Succeeded, "failed": res.Failed, "canceled": res.Canceled} {
		if got := nodes["state="+state]; got != int64(want) {
			t.Errorf("graph_nodes_total{state=%s} = %d, want %d (vec: %v)", state, got, want, nodes)
		}
	}
	if got := snap.Counters["graph_retries_total"]; got != res.Retries {
		t.Errorf("graph_retries_total = %d, want %d", got, res.Retries)
	}
	if got := snap.Counters["graph_admission_retries_total"]; got != res.AdmissionRetries {
		t.Errorf("graph_admission_retries_total = %d, want %d", got, res.AdmissionRetries)
	}
}

func TestDeclarationValidation(t *testing.T) {
	g := graph.New("bad")
	ok := func(_ *core.Task, _ graph.Inputs) (any, error) { return nil, nil }
	if _, err := g.Node("", ok); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := g.Node("a", nil); err == nil {
		t.Fatal("nil body accepted")
	}
	if _, err := g.Node("a", ok); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Node("a", ok); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := g.Node("b", ok, graph.After("b")); err == nil {
		t.Fatal("self-dependency accepted")
	}
	if _, err := g.Node("b", ok, graph.After("zzz")); err == nil {
		t.Fatal("forward reference accepted — graphs must be declare-before-use")
	}
	if _, err := g.Node("b", ok, graph.After("a", "a")); err == nil {
		t.Fatal("duplicate dependency accepted")
	}
}

func TestCascadeCancellation(t *testing.T) {
	pool := newTestPool(t, 4)
	boom := errors.New("boom")

	g := graph.New("cascade")
	g.MustNode("root", constNode(1))
	g.MustNode("bad", func(_ *core.Task, _ graph.Inputs) (any, error) {
		return nil, boom
	}, graph.After("root"), graph.WithRetry(graph.Retry{MaxAttempts: 2, Backoff: time.Millisecond}))
	g.MustNode("mid", constNode(2), graph.After("bad"))
	g.MustNode("leaf", constNode(3), graph.After("mid"))
	g.MustNode("side", constNode(4), graph.After("root"))

	res, err := g.Run(t.Context(), pool)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error %v, want boom", err)
	}
	bad := res.Nodes["bad"]
	if bad.State != graph.NodeFailed || bad.Attempts != 2 || bad.BodyRuns != 2 {
		t.Fatalf("bad: %+v, want failed after 2 attempts", bad)
	}
	for _, name := range []string{"mid", "leaf"} {
		nr := res.Nodes[name]
		if nr.State != graph.NodeCanceled || nr.BodyRuns != 0 {
			t.Fatalf("%s: state=%s bodyRuns=%d, want canceled/0", name, nr.StateName, nr.BodyRuns)
		}
		var up *graph.ErrUpstream
		if !errors.As(nr.Err, &up) || up.Node != "bad" {
			t.Fatalf("%s err %v, want ErrUpstream rooted at bad", name, nr.Err)
		}
		if !errors.Is(nr.Err, boom) {
			t.Fatalf("%s err %v does not unwrap to the root cause", name, nr.Err)
		}
	}
	// The independent branch must be untouched by the cascade.
	if side := res.Nodes["side"]; side.State != graph.NodeSucceeded {
		t.Fatalf("side: %s, want succeeded (independent of failure)", side.StateName)
	}
	if res.Succeeded != 2 || res.Failed != 1 || res.Canceled != 2 {
		t.Fatalf("counts %d/%d/%d, want 2 succeeded, 1 failed, 2 canceled", res.Succeeded, res.Failed, res.Canceled)
	}
	if res.Retries != 1 {
		t.Fatalf("retries %d, want 1 (bad's second attempt)", res.Retries)
	}
}

func TestFlakyNodeRetriesToSuccess(t *testing.T) {
	pool := newTestPool(t, 2)
	var runs atomic.Int64
	g := graph.New("flaky")
	g.MustNode("f", func(_ *core.Task, _ graph.Inputs) (any, error) {
		if runs.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return "done", nil
	}, graph.WithRetry(graph.Retry{MaxAttempts: 3, Backoff: time.Millisecond}))

	res, err := g.Run(t.Context(), pool)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := res.Nodes["f"]
	if f.State != graph.NodeSucceeded || f.Attempts != 3 || f.BodyRuns != 3 {
		t.Fatalf("flaky node %+v, want success on attempt 3", f)
	}
	if res.Retries != 2 {
		t.Fatalf("retries %d, want 2", res.Retries)
	}
}

func TestAttemptTimeoutRetriesThenFails(t *testing.T) {
	pool := newTestPool(t, 2)
	g := graph.New("timeout")
	g.MustNode("slow", func(t *core.Task, _ graph.Inputs) (any, error) {
		return nil, blockUntilCanceled(t)
	},
		graph.WithTimeout(40*time.Millisecond),
		graph.WithRetry(graph.Retry{MaxAttempts: 2, Backoff: time.Millisecond}))

	res, err := g.Run(t.Context(), pool)
	if !errors.Is(err, graph.ErrNodeTimeout) {
		t.Fatalf("Run error %v, want ErrNodeTimeout", err)
	}
	slow := res.Nodes["slow"]
	if slow.State != graph.NodeFailed {
		t.Fatalf("state %s, want failed — attempt timeouts are retryable, not graph-cancel", slow.StateName)
	}
	if slow.Attempts != 2 || slow.BodyRuns != 2 {
		t.Fatalf("attempts=%d bodyRuns=%d, want 2/2 (timeout consumed the budget)", slow.Attempts, slow.BodyRuns)
	}
	if slow.Verdict != serve.VerdictCanceled {
		t.Fatalf("verdict %s, want canceled (each attempt died to its deadline)", slow.Verdict)
	}
}

func TestGraphContextCancelIsTerminal(t *testing.T) {
	pool := newTestPool(t, 2)
	ctx, cancel := context.WithCancel(t.Context())
	g := graph.New("ctx")
	g.MustNode("hold", func(t *core.Task, _ graph.Inputs) (any, error) {
		return nil, blockUntilCanceled(t)
	}, graph.WithRetry(graph.Retry{MaxAttempts: 5, Backoff: time.Millisecond}))
	g.MustNode("next", constNode(1), graph.After("hold"))

	done := make(chan struct{})
	var res *graph.GraphResult
	var err error
	go func() { res, err = g.Run(ctx, pool); close(done) }()
	waitInFlight(t, pool, 1)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after graph context cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error %v, want context.Canceled", err)
	}
	hold := res.Nodes["hold"]
	if hold.State != graph.NodeCanceled || hold.Attempts != 1 {
		t.Fatalf("hold %+v: graph cancel must be terminal, not retried", hold)
	}
	if next := res.Nodes["next"]; next.State != graph.NodeCanceled || next.BodyRuns != 0 {
		t.Fatalf("next %+v, want cascade-canceled without running", next)
	}
}

// Satellite regression: a retry submitted while the pool drains must get
// the prompt typed ErrPoolClosed and terminate the node — never hang the
// graph on a closed pool.
func TestRetryDuringPoolDrainGetsPromptPoolClosed(t *testing.T) {
	pool := serve.New(serve.WithMaxSessions(2), serve.WithQueueDepth(8))
	failed := make(chan struct{})
	g := graph.New("drain")
	g.MustNode("a", func(_ *core.Task, _ graph.Inputs) (any, error) {
		close(failed)
		return nil, errors.New("first attempt fails")
	}, graph.WithRetry(graph.Retry{MaxAttempts: 3, Backoff: 300 * time.Millisecond}))
	g.MustNode("b", constNode(1), graph.After("a"))

	done := make(chan struct{})
	var res *graph.GraphResult
	var err error
	go func() { res, err = g.Run(t.Context(), pool); close(done) }()
	<-failed
	pool.Close() // lands inside a's retry backoff
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung: retry against a draining pool must fail promptly")
	}
	if !errors.Is(err, serve.ErrPoolClosed) {
		t.Fatalf("Run error %v, want ErrPoolClosed", err)
	}
	a := res.Nodes["a"]
	if a.State != graph.NodeCanceled || !errors.Is(a.Err, serve.ErrPoolClosed) {
		t.Fatalf("a %+v, want canceled by ErrPoolClosed", a)
	}
	var up *graph.ErrUpstream
	if b := res.Nodes["b"]; b.State != graph.NodeCanceled || !errors.As(b.Err, &up) || up.Node != "a" {
		t.Fatalf("b %+v, want cascade-canceled from a", b)
	}
}

// Satellite regression: cancel while the node's session is still queued
// (admitted but slotless) must release cleanly — the body never runs and
// the held slot's accounting is intact for later submissions.
func TestCancelWhileQueuedNeverRunsBody(t *testing.T) {
	pool := serve.New(serve.WithMaxSessions(1), serve.WithQueueDepth(8))
	defer pool.Close()
	gate := make(chan struct{})
	hold, err := pool.Submit(t.Context(), "hold", func(_ *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)

	ctx, cancel := context.WithCancel(t.Context())
	g := graph.New("queued")
	g.MustNode("q", constNode(7))
	done := make(chan struct{})
	var res *graph.GraphResult
	go func() { res, _ = g.Run(ctx, pool); close(done) }()
	// Wait until q's session is parked in the admission queue, then
	// cancel the graph out from under it.
	waitQueued(t, pool, 1)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel-while-queued")
	}
	q := res.Nodes["q"]
	if q.State != graph.NodeCanceled || q.BodyRuns != 0 {
		t.Fatalf("q %+v: a queued-then-canceled node must never run its body", q)
	}
	if !errors.Is(q.Err, context.Canceled) {
		t.Fatalf("q err %v, want context.Canceled", q.Err)
	}

	// Slot accounting must be whole: release the holder, then the slot
	// serves a fresh session cleanly.
	close(gate)
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	s, err := pool.Submit(t.Context(), "after", func(_ *core.Task) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("post-cancel session failed: %v", err)
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func waitQueued(t *testing.T, p *serve.Pool, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().Waiting == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queued never reached %d (now %d)", want, p.Stats().Waiting)
}

func TestTypedInputMismatchFailsConsumer(t *testing.T) {
	pool := newTestPool(t, 2)
	g := graph.New("typed")
	g.MustNode("p", constNode(1))
	g.MustNode("c", func(_ *core.Task, in graph.Inputs) (any, error) {
		_, err := graph.In[string](in, "p") // producer emits int
		return nil, err
	}, graph.After("p"))
	res, err := g.Run(t.Context(), pool)
	if err == nil {
		t.Fatal("type-mismatched graph ran clean")
	}
	if c := res.Nodes["c"]; c.State != graph.NodeFailed {
		t.Fatalf("c %s, want failed with a diagnosable type error (got err %v)", c.StateName, c.Err)
	}
}

func TestRandomDAGDeterministicAndExact(t *testing.T) {
	cfg := graph.RandConfig{
		Nodes:     40,
		DoomProb:  0.15,
		FlakyProb: 0.25,
		Retry:     graph.Retry{MaxAttempts: 3, Backoff: 500 * time.Microsecond},
		FanWidth:  4,
		Seed:      7,
	}
	d := graph.Random(cfg)
	d2 := graph.Random(cfg)
	if !reflect.DeepEqual(d.Deps, d2.Deps) || !reflect.DeepEqual(d.Doomed, d2.Doomed) || !reflect.DeepEqual(d.Flaky, d2.Flaky) {
		t.Fatal("same seed produced different DAGs")
	}

	pool := newTestPool(t, 8)
	res, _ := g0run(t, d, pool)
	assertRandDAG(t, d, res)
}

func TestRandomDAGWithDeadlockDoom(t *testing.T) {
	d := graph.Random(graph.RandConfig{
		Nodes:        24,
		DoomProb:     0.2,
		DeadlockDoom: true,
		Retry:        graph.Retry{MaxAttempts: 2, Backoff: 500 * time.Microsecond},
		FanWidth:     2,
		Seed:         11,
	})
	pool := newTestPool(t, 8)
	res, _ := g0run(t, d, pool)
	assertRandDAG(t, d, res)
}

func g0run(t *testing.T, d *graph.RandDAG, pool *serve.Pool) (*graph.GraphResult, error) {
	t.Helper()
	res, err := d.Graph.Run(t.Context(), pool)
	if res == nil {
		t.Fatalf("Run returned nil result (err %v)", err)
	}
	return res, err
}

// assertRandDAG checks a finished random DAG against its ground truth:
// expected state per node, exactly-once body accounting, retry budgets,
// and full cascade coverage under every failed node.
func assertRandDAG(t *testing.T, d *graph.RandDAG, res *graph.GraphResult) {
	t.Helper()
	exp := d.ExpectedStates()
	maxA := d.Cfg.Retry.MaxAttempts
	for name, want := range exp {
		nr, ok := res.Nodes[name]
		if !ok {
			t.Fatalf("node %s missing from result (orphan)", name)
		}
		if !nr.State.Terminal() {
			t.Fatalf("node %s non-terminal state %s (orphan)", name, nr.StateName)
		}
		if nr.State != want {
			t.Fatalf("node %s state %s, want %s (doomed=%v flaky=%v deps=%v, err=%v)",
				name, nr.StateName, want, d.Doomed[name], d.Flaky[name], d.Deps[name], nr.Err)
		}
		switch {
		case nr.State == graph.NodeCanceled:
			if nr.BodyRuns != 0 {
				t.Fatalf("canceled node %s ran its body %d times", name, nr.BodyRuns)
			}
			var up *graph.ErrUpstream
			if !errors.As(nr.Err, &up) || !d.Doomed[up.Node] {
				t.Fatalf("canceled node %s err %v, want ErrUpstream rooted at a doomed node", name, nr.Err)
			}
			if !contains(d.Descendants(up.Node), name) {
				t.Fatalf("node %s blames %s but is not its descendant", name, up.Node)
			}
		case d.Doomed[name]:
			if nr.Attempts != maxA || nr.BodyRuns != int64(maxA) {
				t.Fatalf("doomed node %s attempts=%d bodyRuns=%d, want %d/%d", name, nr.Attempts, nr.BodyRuns, maxA, maxA)
			}
		case d.Flaky[name]:
			if nr.Attempts != maxA || nr.BodyRuns != int64(maxA) {
				t.Fatalf("flaky node %s attempts=%d bodyRuns=%d, want %d/%d (fail %d then succeed)",
					name, nr.Attempts, nr.BodyRuns, maxA, maxA, maxA-1)
			}
		default:
			if nr.Attempts != 1 || nr.BodyRuns != 1 {
				t.Fatalf("healthy node %s attempts=%d bodyRuns=%d, want 1/1", name, nr.Attempts, nr.BodyRuns)
			}
		}
	}
	// Every transitive descendant of every failed node must be canceled.
	for name := range d.Doomed {
		if res.Nodes[name].State != graph.NodeFailed {
			continue // doomed but already canceled by an upstream doom
		}
		for _, desc := range d.Descendants(name) {
			if st := res.Nodes[desc].State; st != graph.NodeCanceled {
				t.Fatalf("cascade miss: %s failed but descendant %s is %s", name, desc, st)
			}
		}
	}
	if res.Succeeded+res.Failed+res.Canceled != d.Graph.Len() {
		t.Fatalf("terminal counts %d+%d+%d != %d nodes", res.Succeeded, res.Failed, res.Canceled, d.Graph.Len())
	}
}
