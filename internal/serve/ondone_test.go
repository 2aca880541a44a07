package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// hookProbe is a WithOnDone hook that counts its calls and hands each
// completed session to the test.
type hookProbe struct {
	calls atomic.Int32
	got   chan *Session
}

func newHookProbe() *hookProbe { return &hookProbe{got: make(chan *Session, 4)} }

func (h *hookProbe) hook(s *Session) {
	select {
	case <-s.Done():
	default:
		panic("completion hook ran before the session was done")
	}
	h.calls.Add(1)
	h.got <- s
}

func (h *hookProbe) await(t *testing.T) *Session {
	t.Helper()
	select {
	case s := <-h.got:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("completion hook never ran")
		return nil
	}
}

// holdPool returns a one-slot pool whose slot is held by a session that
// runs until release is called, with one queue place behind it.
func holdPool(t *testing.T) (pool *Pool, hold *Session, release func()) {
	t.Helper()
	pool = NewPool(Config{MaxSessions: 1, QueueDepth: 1})
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	hold, err := pool.Submit(t.Context(), "hold", func(_ *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)
	return pool, hold, release
}

// TestOnDoneAfterRun: a session that ran calls its hook exactly once,
// after it is done, and a hook that is still running delays neither the
// session's Wait nor the next session's start.
func TestOnDoneAfterRun(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: 1})
	defer pool.Close()
	probe := newHookProbe()
	unblock := make(chan struct{})
	release := sync.OnceFunc(func() { close(unblock) })
	defer release() // before Close, even when the test fails early
	first, err := pool.Submit(t.Context(), "first", cleanProg, WithOnDone(func(s *Session) {
		probe.hook(s)
		<-unblock
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := probe.await(t); got != first {
		t.Fatalf("hook got session %d, want %d", got.ID(), first.ID())
	}
	if err := first.Wait(); err != nil || first.Verdict() != VerdictClean {
		t.Fatalf("first: err %v verdict %v", err, first.Verdict())
	}
	next, err := pool.Submit(t.Context(), "next", cleanProg)
	if err != nil {
		t.Fatalf("slot not released before the hook: %v", err)
	}
	if err := next.Wait(); err != nil {
		t.Fatal(err)
	}
	release()
	pool.Close()
	if n := probe.calls.Load(); n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
}

// TestOnDoneQueuedCtxAbort: a queued session aborted by its ctx calls its
// hook exactly once, with the canceled verdict, without ever running.
func TestOnDoneQueuedCtxAbort(t *testing.T) {
	pool, hold, release := holdPool(t)
	defer pool.Close()
	defer release()
	probe := newHookProbe()
	ctx, cancel := context.WithCancel(t.Context())
	ran := false
	s, err := pool.Submit(ctx, "queued", func(_ *core.Task) error { ran = true; return nil }, WithOnDone(probe.hook))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if got := probe.await(t); got != s || got.Verdict() != VerdictCanceled {
		t.Fatalf("hook got session %d verdict %v, want %d canceled", got.ID(), got.Verdict(), s.ID())
	}
	release()
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if ran {
		t.Fatal("aborted queued session ran its body")
	}
	if n := probe.calls.Load(); n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
}

// TestOnDoneQueuedClose: a session still queued when Close runs calls
// its hook exactly once with ErrPoolClosed, while Close is still waiting
// for the running session.
func TestOnDoneQueuedClose(t *testing.T) {
	pool, hold, release := holdPool(t)
	defer release()
	probe := newHookProbe()
	s, err := pool.Submit(t.Context(), "queued", cleanProg, WithOnDone(probe.hook))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { pool.Close(); close(closed) }()
	if got := probe.await(t); got != s || !errors.Is(got.Err(), ErrPoolClosed) {
		t.Fatalf("hook got session %d err %v, want %d with ErrPoolClosed", got.ID(), got.Err(), s.ID())
	}
	release()
	<-closed
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := probe.calls.Load(); n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
}
