package graph_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// waitGoroutines polls until the goroutine count is back at or below
// want, failing after 5 s.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind, baseline %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBlockedGraphHoldsNoGoroutinePerNode: a 64-node graph whose 32
// launched nodes block (4 running, 28 queued for a slot) and whose 32
// other nodes are still pending adds only the running sessions' workers
// and Run's own goroutine — no goroutine per pending, queued or running
// node.
func TestBlockedGraphHoldsNoGoroutinePerNode(t *testing.T) {
	const roots, running = 32, 4
	pool := newTestPool(t, running)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the pool's Close, even when the test fails early

	g := graph.New("blocked")
	for i := 0; i < roots; i++ {
		root := fmt.Sprintf("root-%d", i)
		g.MustNode(root, func(_ *core.Task, _ graph.Inputs) (any, error) { <-gate; return i, nil })
		g.MustNode(fmt.Sprintf("leaf-%d", i), constNode(i), graph.After(root))
	}

	before := runtime.NumGoroutine()
	done := make(chan struct{})
	var res *graph.GraphResult
	var err error
	go func() { res, err = g.Run(t.Context(), pool); close(done) }()
	waitInFlight(t, pool, running)
	waitQueued(t, pool, roots-running)
	if grew := runtime.NumGoroutine() - before; grew >= roots/2 {
		t.Fatalf("a graph with %d launched and %d pending nodes added %d goroutines, want far fewer than %d",
			roots, roots, grew, roots)
	}

	release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the gate opened")
	}
	if err != nil || res.Succeeded != 2*roots {
		t.Fatalf("Run: err %v, %d of %d nodes succeeded", err, res.Succeeded, 2*roots)
	}
}

// TestCancelDuringRetryBackoff: cancelling the graph while a node waits
// out a 1 s retry backoff cancels the node at once and leaves no
// goroutine behind.
func TestCancelDuringRetryBackoff(t *testing.T) {
	pool := newTestPool(t, 2)
	failed := make(chan struct{})
	g := graph.New("backoff")
	g.MustNode("flaky", func(_ *core.Task, _ graph.Inputs) (any, error) {
		close(failed)
		return nil, errors.New("first attempt fails")
	}, graph.WithRetry(graph.Retry{MaxAttempts: 3, Backoff: time.Second}))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	var res *graph.GraphResult
	go func() { res, _ = g.Run(ctx, pool); close(done) }()
	<-failed
	waitInFlight(t, pool, 0) // the attempt is over: its hook starts (or has started) the backoff
	canceled := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel during backoff")
	}
	if took := time.Since(canceled); took > 100*time.Millisecond {
		t.Errorf("node canceled %v after the graph, want within 100ms", took)
	}
	if n := res.Nodes["flaky"]; n.State != graph.NodeCanceled || n.Attempts != 1 || !errors.Is(n.Err, context.Canceled) {
		t.Fatalf("flaky %+v, want canceled after one attempt", n)
	}
	waitGoroutines(t, before)
}

// TestQueuedNodeCanceledByPoolClose: a node still waiting for a slot when
// Pool.Close runs ends NodeCanceled with ErrPoolClosed, its dependent is
// cascade-canceled, and Run returns while Close still waits for the
// session holding the slot.
func TestQueuedNodeCanceledByPoolClose(t *testing.T) {
	pool := serve.New(serve.WithMaxSessions(1), serve.WithQueueDepth(8))
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	hold, err := pool.Submit(t.Context(), "hold", func(_ *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)

	g := graph.New("close")
	g.MustNode("queued", constNode(1))
	g.MustNode("after", constNode(2), graph.After("queued"))
	done := make(chan struct{})
	var res *graph.GraphResult
	go func() { res, err = g.Run(t.Context(), pool); close(done) }()
	waitQueued(t, pool, 1)
	closed := make(chan struct{})
	go func() { pool.Close(); close(closed) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a node queued at Pool.Close")
	}
	if !errors.Is(err, serve.ErrPoolClosed) {
		t.Fatalf("Run error %v, want ErrPoolClosed", err)
	}
	if q := res.Nodes["queued"]; q.State != graph.NodeCanceled || q.BodyRuns != 0 {
		t.Fatalf("queued %+v, want canceled without running", q)
	}
	if a := res.Nodes["after"]; a.State != graph.NodeCanceled {
		t.Fatalf("after %+v, want cascade-canceled", a)
	}
	release()
	<-closed
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
}
