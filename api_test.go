package repro_test

// Tests of the public facade: everything a downstream user touches goes
// through the repro package, so these double as API-stability checks and
// as the executable version of the README's examples.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
)

func runWithDeadline(t *testing.T, rt *repro.Runtime, main repro.TaskFunc) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("facade program hung")
		return nil
	}
}

func TestReadmeQuickstart(t *testing.T) {
	rt := repro.NewRuntime()
	err := runWithDeadline(t, rt, func(tk *repro.Task) error {
		p := repro.NewPromiseNamed[string](tk, "greeting")
		if _, err := tk.Async(func(child *repro.Task) error {
			return p.Set(child, "hello")
		}, p); err != nil {
			return err
		}
		msg, err := p.Get(tk)
		if err != nil {
			return err
		}
		if msg != "hello" {
			return fmt.Errorf("msg = %q", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeModesAndOptions(t *testing.T) {
	for _, mode := range []repro.Mode{repro.Unverified, repro.Ownership, repro.Full} {
		rt := repro.NewRuntime(repro.WithMode(mode), repro.WithEventCounting(true))
		if rt.Mode() != mode {
			t.Fatalf("mode = %v", rt.Mode())
		}
		err := runWithDeadline(t, rt, func(tk *repro.Task) error {
			p := repro.NewPromise[int](tk)
			if err := p.Set(tk, 1); err != nil {
				return err
			}
			_, err := p.Get(tk)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := rt.Stats(); st.Gets != 1 || st.Sets != 1 {
			t.Fatalf("stats = %+v", st)
		}
	}
}

func TestFacadeDeadlockTypes(t *testing.T) {
	rt := repro.NewRuntime()
	var alarm error
	rt2 := repro.NewRuntime(repro.WithAlarmHandler(func(err error) { alarm = err }))
	_ = rt
	err := runWithDeadline(t, rt2, func(tk *repro.Task) error {
		p := repro.NewPromiseNamed[int](tk, "self")
		_, e := p.Get(tk)
		var dl *repro.DeadlockError
		if !errors.As(e, &dl) {
			return fmt.Errorf("get = %v", e)
		}
		if len(dl.Cycle) != 1 {
			return fmt.Errorf("cycle = %v", dl.Cycle)
		}
		var node repro.CycleNode = dl.Cycle[0]
		if node.PromiseLabel() != "self" {
			return fmt.Errorf("node = %+v", node)
		}
		return p.Set(tk, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var dl *repro.DeadlockError
	if !errors.As(alarm, &dl) {
		t.Fatalf("alarm = %v", alarm)
	}
}

func TestFacadeOmittedSetTypes(t *testing.T) {
	rt := repro.NewRuntime(repro.WithMode(repro.Ownership))
	err := runWithDeadline(t, rt, func(tk *repro.Task) error {
		p := repro.NewPromiseNamed[int](tk, "owed")
		if _, err := tk.AsyncNamed("debtor", func(c *repro.Task) error {
			return nil
		}, p); err != nil {
			return err
		}
		_, e := p.Get(tk)
		var bp *repro.BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("get = %v", e)
		}
		return nil
	})
	var om *repro.OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("err = %v", err)
	}
	if om.TaskName() != "debtor" {
		t.Fatalf("blame = %q", om.TaskName())
	}
}

func TestFacadeGroupAndMovable(t *testing.T) {
	rt := repro.NewRuntime()
	err := runWithDeadline(t, rt, func(tk *repro.Task) error {
		a := repro.NewPromise[int](tk)
		b := repro.NewPromise[int](tk)
		var m repro.Movable = repro.Group{a, b}
		if len(m.AppendPromises(nil)) != 2 {
			return errors.New("group size")
		}
		if _, err := tk.Async(func(c *repro.Task) error {
			a.MustSet(c, 1)
			b.MustSet(c, 2)
			return nil
		}, m); err != nil {
			return err
		}
		if a.MustGet(tk)+b.MustGet(tk) != 3 {
			return errors.New("values")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRunDetachedDeadline(t *testing.T) {
	// The context-first spelling of the old run-with-timeout contract: a
	// deadline ctx carrying ErrTimeout as its cause, RunDetached so the
	// hang is abandoned (frozen), not cancelled.
	rt := repro.NewRuntime(repro.WithMode(repro.Unverified))
	ctx, cancel := context.WithTimeoutCause(context.Background(), 100*time.Millisecond, repro.ErrTimeout)
	defer cancel()
	err := rt.RunDetached(ctx, func(tk *repro.Task) error {
		p := repro.NewPromise[int](tk)
		_, e := p.Get(tk)
		return e
	})
	if !errors.Is(err, repro.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

// TestFacadeContextFirst is the executable form of the ctx-first README
// section: a run scope cancels every descendant's blocked wait, the
// per-wait form reports a typed CanceledError, and the alarm machinery
// stays quiet (cancellation is not a verdict on the program).
func TestFacadeContextFirst(t *testing.T) {
	var alarms int
	rt := repro.NewRuntime(repro.WithAlarmHandler(func(error) { alarms++ }))
	ctx, cancel := context.WithCancel(t.Context())
	err := rt.RunContext(ctx, func(tk *repro.Task) error {
		p := repro.NewPromiseNamed[string](tk, "reply")
		if _, err := tk.Async(func(c *repro.Task) error {
			cancel() // the caller hangs up while the child still owes p
			<-c.Context().Done()
			time.Sleep(20 * time.Millisecond) // let the canceled wait win decisively
			return p.Set(c, "too late")
		}, p); err != nil {
			return err
		}
		_, e := p.GetContext(ctx, tk)
		var ce *repro.CanceledError
		if !errors.As(e, &ce) {
			return fmt.Errorf("GetContext = %v, want CanceledError", e)
		}
		if ce.PromiseLabel != "reply" {
			return fmt.Errorf("canceled wait blames %q", ce.PromiseLabel)
		}
		return e
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled in the chain", err)
	}
	var ce *repro.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("RunContext = %v, want a CanceledError", err)
	}
	if alarms != 0 {
		t.Fatalf("cancellation raised %d alarms, want 0", alarms)
	}
}

func TestFacadePoolSessionCancel(t *testing.T) {
	pool := repro.NewServePool(repro.WithMaxSessions(2))
	defer pool.Close()
	ctx, cancel := context.WithCancel(t.Context())
	sess, err := pool.Submit(ctx, "hung-client", func(tk *repro.Task) error {
		p := repro.NewPromise[int](tk)
		if _, err := tk.Async(func(c *repro.Task) error {
			<-c.Context().Done()
			time.Sleep(20 * time.Millisecond) // let the canceled wait win decisively
			return p.Set(c, 0)
		}, p); err != nil {
			return err
		}
		_, e := p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	sess.Wait()
	if got := sess.Verdict(); got != repro.VerdictCanceled {
		t.Fatalf("verdict %s, want canceled (err: %v)", got, sess.Err())
	}
	if got := repro.ClassifyVerdict(sess.Err()); got != repro.VerdictCanceled {
		t.Fatalf("ClassifyVerdict = %s", got)
	}
}

// TestFacadePool is the executable form of the quickstart README's
// serving-layer example: isolated sessions over one shared scheduler,
// verdicts per session, saturation as a typed error.
func TestFacadePool(t *testing.T) {
	pool := repro.NewServePool(repro.WithMaxSessions(4), repro.WithQueueDepth(8))
	clean, err := pool.Submit(t.Context(), "clean", func(tk *repro.Task) error {
		p := repro.NewPromise[string](tk)
		if _, err := tk.Async(func(c *repro.Task) error { return p.Set(c, "hi") }, p); err != nil {
			return err
		}
		_, err := p.Get(tk)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := pool.Submit(t.Context(), "cycle", func(tk *repro.Task) error {
		p := repro.NewPromise[int](tk)
		q := repro.NewPromise[int](tk)
		if _, err := tk.Async(func(c *repro.Task) error {
			if _, err := p.Get(c); err != nil {
				return err
			}
			return q.Set(c, 1)
		}, q); err != nil {
			return err
		}
		if _, err := q.Get(tk); err != nil {
			return err
		}
		return p.Set(tk, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Wait(); err != nil || clean.Verdict() != repro.VerdictClean {
		t.Fatalf("clean session: verdict %s err %v", clean.Verdict(), err)
	}
	if cycle.Wait(); cycle.Verdict() != repro.VerdictDeadlock {
		t.Fatalf("cycle session: verdict %s err %v", cycle.Verdict(), cycle.Err())
	}
	if got := repro.ClassifyVerdict(cycle.Err()); got != repro.VerdictDeadlock {
		t.Fatalf("ClassifyVerdict = %s", got)
	}
	pool.Close()
	if _, err := pool.Submit(t.Context(), "late", func(tk *repro.Task) error { return nil }); !errors.Is(err, repro.ErrPoolClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	stats := pool.Stats()
	if stats.Completed != 2 || stats.Clean != 1 || stats.Deadlocks != 1 {
		t.Fatalf("pool stats: %+v", stats)
	}
	_ = fmt.Sprintf("%s", clean.Verdict()) // verdicts render for reports
}

// TestFacadeSessionGraph is the executable form of the README's
// session-graph quickstart: a diamond DAG over a pool, typed handoff
// between sessions via GraphInput, per-node retry policy, and the
// cascade contract (ErrUpstream names the root failure; independent
// branches still complete), counted in the installed metrics registry.
func TestFacadeSessionGraph(t *testing.T) {
	reg := repro.NewMetricsRegistry()
	repro.InstallMetrics(reg)
	t.Cleanup(func() { repro.InstallMetrics(nil) })
	pool := repro.NewServePool(repro.WithMaxSessions(4), repro.WithQueueDepth(16))
	defer pool.Close()

	g := repro.NewGraph("diamond")
	g.MustNode("src", func(tk *repro.Task, _ repro.Inputs) (any, error) {
		p := repro.NewPromise[int](tk)
		if _, err := tk.Async(func(c *repro.Task) error { return p.Set(c, 21) }, p); err != nil {
			return nil, err
		}
		return p.Get(tk)
	})
	double := func(tk *repro.Task, in repro.Inputs) (any, error) {
		v, err := repro.GraphInput[int](in, "src")
		if err != nil {
			return nil, err
		}
		return v * 2, nil
	}
	g.MustNode("left", double, repro.NodeAfter("src"))
	g.MustNode("right", double, repro.NodeAfter("src"),
		repro.WithNodeRetry(repro.NodeRetry{MaxAttempts: 2, Backoff: time.Millisecond}))
	g.MustNode("sink", func(tk *repro.Task, in repro.Inputs) (any, error) {
		l, err := repro.GraphInput[int](in, "left")
		if err != nil {
			return nil, err
		}
		r, err := repro.GraphInput[int](in, "right")
		if err != nil {
			return nil, err
		}
		return l + r, nil
	}, repro.NodeAfter("left", "right"))

	res, err := g.Run(t.Context(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Succeeded != 4 {
		t.Fatalf("diamond result: %+v", res)
	}
	out, ok := res.Output("sink")
	if !ok || out.(int) != 84 {
		t.Fatalf("sink output = %v (ok=%v), want 84", out, ok)
	}
	for _, n := range []string{"src", "left", "right", "sink"} {
		nr := res.Nodes[n]
		if nr.State != repro.NodeSucceeded || nr.Verdict != repro.VerdictClean {
			t.Fatalf("node %s: state %s verdict %s", n, nr.State, nr.Verdict)
		}
	}
	if len(res.CriticalPath) != 3 { // src -> left|right -> sink
		t.Fatalf("critical path %v", res.CriticalPath)
	}

	// Cascade: a failing producer cancels exactly its dependents, with a
	// typed ErrUpstream naming the root; the independent branch finishes.
	boom := errors.New("boom")
	g2 := repro.NewGraph("cascade")
	g2.MustNode("bad", func(*repro.Task, repro.Inputs) (any, error) { return nil, boom })
	g2.MustNode("downstream", func(tk *repro.Task, in repro.Inputs) (any, error) {
		return repro.GraphInput[int](in, "bad")
	}, repro.NodeAfter("bad"))
	g2.MustNode("island", func(*repro.Task, repro.Inputs) (any, error) { return 7, nil })
	res2, err := g2.Run(t.Context(), pool)
	if !errors.Is(err, boom) {
		t.Fatalf("cascade Run err = %v, want the root failure", err)
	}
	if res2.OK() {
		t.Fatal("cascade graph reported OK")
	}
	if got := res2.Nodes["bad"].State; got != repro.NodeFailed {
		t.Fatalf("bad state %s", got)
	}
	down := res2.Nodes["downstream"]
	if down.State != repro.NodeCanceled || down.BodyRuns != 0 {
		t.Fatalf("downstream state %s bodyRuns %d", down.State, down.BodyRuns)
	}
	var up *repro.ErrUpstream
	if !errors.As(down.Err, &up) || up.Node != "bad" || !errors.Is(down.Err, boom) {
		t.Fatalf("downstream err %v, want ErrUpstream{bad} wrapping boom", down.Err)
	}
	if nr := res2.Nodes["island"]; nr.State != repro.NodeSucceeded {
		t.Fatalf("island state %s (independent branch must complete)", nr.State)
	}

	snap := reg.Snapshot()
	runs, nodes := snap.Vectors["graph_runs_total"], snap.Vectors["graph_nodes_total"]
	if runs["result=ok"] != 1 || runs["result=failed"] != 1 {
		t.Fatalf("graph_runs_total %v, want 1 ok and 1 failed", runs)
	}
	if nodes["state=succeeded"] != 5 || nodes["state=failed"] != 1 || nodes["state=canceled"] != 1 {
		t.Fatalf("graph_nodes_total %v, want 5 succeeded, 1 failed, 1 canceled", nodes)
	}
}

// TestFacadeSpawnFastPaths exercises the batched spawn fast path through
// the facade.
func TestFacadeSpawnFastPaths(t *testing.T) {
	rt := repro.NewRuntime()
	err := rt.Run(func(tk *repro.Task) error {
		q := repro.NewPromise[int](tk)
		r := repro.NewPromise[int](tk)
		children, err := tk.AsyncBatch([]repro.SpawnSpec{
			{Name: "q", Body: func(c *repro.Task) error { return q.Set(c, 2) }, Moved: []repro.Movable{q}},
			{Name: "r", Body: func(c *repro.Task) error { return r.Set(c, 3) }, Moved: []repro.Movable{r}},
		})
		if err != nil || len(children) != 2 {
			return fmt.Errorf("AsyncBatch = %d children, %v", len(children), err)
		}
		qs, _ := q.Get(tk)
		rs, _ := r.Get(tk)
		if qs+rs != 5 {
			return fmt.Errorf("batch results %d+%d", qs, rs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
