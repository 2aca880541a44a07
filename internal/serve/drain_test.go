package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Regression for the graph-retry window: a submission that lands while
// Pool.Close is already draining (closed flag set, running sessions
// still finishing) must get the prompt typed ErrPoolClosed — not queue
// behind the drain, and not hang until the last session exits. The
// graph layer leans on this: a node retry that fires mid-drain must
// terminate its node immediately instead of wedging Graph.Run.
func TestSubmitDuringDrainPromptErrPoolClosed(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: 4})
	gate := make(chan struct{})
	hold, err := pool.Submit(t.Context(), "hold", func(_ *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)

	closed := make(chan struct{})
	go func() { pool.Close(); close(closed) }()

	// Close blocks on the running session; once its closed flag is up,
	// every new Submit must be rejected synchronously and promptly. Poll
	// for the flag (the goroutine above needs a moment to take the lock),
	// then assert promptness on a clean sample.
	deadline := time.Now().Add(5 * time.Second)
	var rejected bool
	for time.Now().Before(deadline) {
		begin := time.Now()
		s, serr := pool.Submit(t.Context(), "late", cleanProg)
		took := time.Since(begin)
		if serr == nil {
			// Raced ahead of the Close goroutine taking the lock: the
			// session was legitimately queued and Close will abort it.
			defer s.Wait()
			time.Sleep(time.Millisecond)
			continue
		}
		if errors.Is(serr, ErrPoolClosed) {
			if took > time.Second {
				t.Fatalf("ErrPoolClosed took %v, want synchronous rejection", took)
			}
			rejected = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !rejected {
		t.Fatal("Submit never returned ErrPoolClosed while draining")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a session was still running")
	default:
	}

	close(gate)
	if err := hold.Wait(); err != nil {
		t.Fatalf("draining session failed: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last session finished")
	}
}

// Regression for the cascade-cancel admission race: a session whose ctx
// is canceled while it is queued (admitted, no slot yet) must abort
// without ever running its body or consuming a slot — the freed
// capacity must be immediately usable. This is the serve-level half of
// the graph harness's "canceled nodes have zero body runs" invariant.
func TestQueuedCancelReleasesCapacityAndNeverRuns(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: 4})
	defer pool.Close()
	gate := make(chan struct{})
	hold, err := pool.Submit(t.Context(), "hold", func(_ *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)

	ctx, cancel := context.WithCancel(t.Context())
	ran := make(chan struct{})
	queued, err := pool.Submit(ctx, "queued", func(_ *core.Task) error { close(ran); return nil })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued session did not abort on cancel")
	}
	select {
	case <-ran:
		t.Fatal("canceled queued session ran its body")
	default:
	}
	if got := queued.Verdict(); got != VerdictCanceled {
		t.Fatalf("verdict %s, want canceled (err: %v)", got, queued.Err())
	}

	// The aborted entry must not have cost the slot: the holder is still
	// running, and once it finishes the slot serves new work while peak
	// never exceeded the single configured slot.
	close(gate)
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	after, err := pool.Submit(t.Context(), "after", cleanProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := after.Wait(); err != nil {
		t.Fatalf("post-abort session failed: %v", err)
	}
	if ps := pool.Stats(); ps.Peak != 1 {
		t.Fatalf("peak in-flight %d, want 1 (queued abort must not occupy a slot)", ps.Peak)
	}
	select {
	case <-ran:
		t.Fatal("canceled queued session ran its body late")
	default:
	}
}

// A queued session is only an entry in its tenant's queue: it holds no
// goroutine until a slot is granted (its ctx is watched by
// context.AfterFunc, which parks no goroutine for a cancelable ctx).
// 256 sessions queued behind one held slot must therefore cost far
// fewer than 256 goroutines.
func TestQueuedSessionsHoldNoGoroutines(t *testing.T) {
	const queued = 256
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: queued})
	defer pool.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, even when the test fails early
	hold, err := pool.Submit(t.Context(), "hold", func(_ *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)

	before := runtime.NumGoroutine()
	sessions := make([]*Session, queued)
	for i := range sessions {
		if sessions[i], err = pool.Submit(t.Context(), "", cleanProg); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if ps := pool.Stats(); ps.Waiting != queued {
		t.Fatalf("waiting %d, want %d", ps.Waiting, queued)
	}
	if grew := runtime.NumGoroutine() - before; grew >= queued/8 {
		t.Fatalf("%d queued sessions added %d goroutines, want far fewer than %d", queued, grew, queued)
	}

	release()
	if err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		if err := s.Wait(); err != nil {
			t.Fatalf("queued session %d: %v", i, err)
		}
	}
}

// dyingCtx is alive for its first Err check — Submit's dead-on-arrival
// test — and canceled from then on: a session whose ctx ends after it is
// admitted but before its root task starts.
type dyingCtx struct {
	context.Context
	done   chan struct{}
	once   sync.Once
	checks atomic.Int32
}

func (c *dyingCtx) Done() <-chan struct{} { return c.done }

func (c *dyingCtx) Err() error {
	if c.checks.Add(1) == 1 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// The root task runs on the session's own job and is counted only when
// it runs: a session whose ctx ends before its root starts builds a
// runtime that runs nothing, and SchedStats must read zero submitted,
// zero in flight — not one job for a root that never ran.
func TestCanceledBeforeRootExactAccounting(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1})
	defer pool.Close()
	ran := false
	s, err := pool.Submit(&dyingCtx{Context: context.Background(), done: make(chan struct{})}, "dying",
		func(_ *core.Task) error { ran = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("root body ran under a dead ctx")
	}
	if s.Verdict() != VerdictCanceled {
		t.Fatalf("verdict %s, want canceled", s.Verdict())
	}
	if s.Runtime() == nil {
		t.Fatal("admitted session built no runtime")
	}
	st, _ := s.Stats()
	submitted, inflight := s.SchedStats()
	if submitted != st.Tasks || st.Tasks != 0 || inflight != 0 {
		t.Fatalf("submitted %d (in flight %d), runtime ran %d: want 0, 0, 0", submitted, inflight, st.Tasks)
	}
}
