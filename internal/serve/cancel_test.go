package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// cancellableProg blocks its root on a promise that is fulfilled only
// when the session's cancellation scope ends: the child polls the run
// scope (Task.Context) and sets the promise on its way out, so the whole
// tree unwinds cooperatively and the session's only possible outcomes
// are clean (never here — nothing else fulfils it) or canceled.
func cancellableProg(root *core.Task) error {
	p := core.NewPromise[int](root)
	if _, err := root.Async(func(c *core.Task) error {
		for c.Context().Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		// Give the root's canceled wait a decisive head start before the
		// farewell fulfilment, so the session deterministically reports
		// the cancellation rather than racing it with the late value.
		time.Sleep(20 * time.Millisecond)
		return p.Set(c, 0) // fulfil on the way out: cancellation, not omission
	}, p); err != nil {
		return err
	}
	_, err := p.Get(root) // aborts with a CanceledError when the scope ends
	return err
}

func TestSubmitCtxCancelMidFlight(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 2, Runtime: []core.Option{core.WithMode(core.Full)}})
	defer pool.Close()
	ctx, cancel := context.WithCancel(t.Context())
	s, err := pool.Submit(ctx, "victim", cancellableProg)
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)
	cancel()
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("canceled session did not finish")
	}
	if got := s.Verdict(); got != VerdictCanceled {
		t.Fatalf("verdict %s, want canceled (err: %v)", got, s.Err())
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("session error %v does not unwrap to context.Canceled", s.Err())
	}
	if ps := pool.Stats(); ps.Canceled != 1 {
		t.Fatalf("pool canceled count %d, want 1", ps.Canceled)
	}
}

func TestSubmitCtxCancelWhileQueued(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: 2})
	defer pool.Close()
	gate := make(chan struct{})
	first, err := pool.Submit(t.Context(), "first", func(tk *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)
	ctx, cancel := context.WithCancel(t.Context())
	queued, err := pool.Submit(ctx, "queued", cleanProg)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The queued session must abort while the only slot is still held.
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued session did not abort on ctx cancel")
	}
	if got := queued.Verdict(); got != VerdictCanceled {
		t.Fatalf("verdict %s, want canceled (err: %v)", got, queued.Err())
	}
	var ce *core.CanceledError
	if !errors.As(queued.Err(), &ce) {
		t.Fatalf("queued session error %v, want CanceledError", queued.Err())
	}
	if st, ok := queued.Stats(); !ok || st.Tasks != 0 {
		t.Fatalf("aborted-in-queue session stats = %+v (ok=%v), want zero stats ready", st, ok)
	}
	close(gate)
	if err := first.Wait(); err != nil {
		t.Fatalf("running session failed: %v", err)
	}
}

func TestSubmitRejectsDeadContext(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1})
	defer pool.Close()
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := pool.Submit(ctx, "doa", cleanProg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit on a dead ctx = %v, want context.Canceled", err)
	}
	if ps := pool.Stats(); ps.Rejected != 1 || ps.Submitted != 0 {
		t.Fatalf("stats: rejected=%d submitted=%d, want 1/0", ps.Rejected, ps.Submitted)
	}
}

func TestPerSessionRuntimeOptionOverride(t *testing.T) {
	// The pool's base options are a default, not a cage: a per-Submit
	// option lands after the base list, so it wins. Same omitted-set
	// program, two verdicts.
	pool := NewPool(Config{MaxSessions: 2, Runtime: []core.Option{core.WithMode(core.Full)}})
	defer pool.Close()
	omit := func(root *core.Task) error {
		core.NewPromise[int](root) // owned, never set
		return nil
	}
	strict, err := pool.Submit(t.Context(), "strict", omit)
	if err != nil {
		t.Fatal(err)
	}
	lax, err := pool.Submit(t.Context(), "lax", omit, WithRuntime(core.WithMode(core.Unverified)))
	if err != nil {
		t.Fatal(err)
	}
	strict.Wait()
	lax.Wait()
	if got := strict.Verdict(); got != VerdictPolicy {
		t.Errorf("base-option session: verdict %s, want policy", got)
	}
	if got := lax.Verdict(); got != VerdictClean {
		t.Errorf("override session: verdict %s, want clean (err: %v)", got, lax.Err())
	}
}

// TestCancelMidFlightStealHeavyExactAccounting is the ctx redesign's
// serving-layer stress contract, run under -race by the tier-1 suite:
// sessions spawning promise-joined task fans over the shared
// work-stealing scheduler are cancelled at random points mid-flight, and
// afterwards (1) every session classifies as clean or canceled — never a
// false deadlock or policy verdict, (2) no session dropped trace events,
// (3) the per-session scheduler accounting is exact (submitted tasks all
// finished, none lost across steals), and (4) Pool.Close releases every
// goroutine.
func TestCancelMidFlightStealHeavyExactAccounting(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(Config{
		MaxSessions: 16,
		QueueDepth:  16,
		Runtime:     []core.Option{core.WithMode(core.Full), core.TraceTo(trace.NewMemSink(4096))},
	})

	// A spawn-join fan: enough concurrent small tasks per session that the
	// scheduler's thieves redistribute them across workers while the
	// cancellations land at arbitrary points of the tree.
	fan := func(root *core.Task) error {
		for round := 0; round < 4; round++ {
			var ps []*core.Promise[int]
			for i := 0; i < 8; i++ {
				p := core.NewPromise[int](root)
				ps = append(ps, p)
				if _, err := root.Async(func(c *core.Task) error {
					time.Sleep(50 * time.Microsecond)
					return p.Set(c, 1)
				}, p); err != nil {
					return err
				}
			}
			for _, p := range ps {
				if _, err := p.Get(root); err != nil {
					return err
				}
			}
		}
		return nil
	}

	const n = 32
	rng := rand.New(rand.NewSource(7))
	sessions := make([]*Session, n)
	cancels := make([]context.CancelFunc, n)
	for i := range sessions {
		ctx, cancel := context.WithCancel(t.Context())
		cancels[i] = cancel
		s, err := pool.Submit(ctx, fmt.Sprintf("steal-%d", i), fan)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		sessions[i] = s
		// Cancel a prior session at a random point while later ones are
		// still being admitted — mid-queue, mid-run, or already done.
		victim := rng.Intn(i + 1)
		if rng.Intn(2) == 0 {
			cancels[victim]()
		}
	}
	for _, c := range cancels {
		c()
	}

	canceled := 0
	for i, s := range sessions {
		if err := s.Wait(); err != nil && s.Verdict() != VerdictCanceled {
			t.Errorf("session %d: err %v with verdict %s", i, err, s.Verdict())
		}
		switch v := s.Verdict(); v {
		case VerdictClean:
		case VerdictCanceled:
			canceled++
		default:
			// A cancellation must never be misread as a deadlock or a
			// policy conviction — that is the "false verdict" this test
			// exists to catch.
			t.Errorf("session %d: false verdict %s (err: %v)", i, v, s.Err())
		}
		if s.Runtime() == nil {
			continue // aborted in the queue: no runtime, no tasks
		}
		st, ok := s.Stats()
		if !ok {
			t.Fatalf("session %d: Stats not ready after Wait", i)
		}
		if st.EventsDropped != 0 {
			t.Errorf("session %d: %d dropped trace events", i, st.EventsDropped)
		}
		// Exact accounting: every task the session submitted to the
		// shared scheduler ran and finished, steals notwithstanding.
		submitted, inflight := s.SchedStats()
		if inflight != 0 {
			t.Errorf("session %d: %d tasks still in flight after Wait", i, inflight)
		}
		if submitted != st.Tasks {
			t.Errorf("session %d: submitted %d, runtime ran %d", i, submitted, st.Tasks)
		}
		if err := s.Runtime().TraceClose(); err != nil {
			t.Errorf("session %d: TraceClose: %v", i, err)
		}
	}
	t.Logf("%d/%d sessions canceled mid-flight", canceled, n)

	ps := pool.Stats()
	if ps.Completed != n {
		t.Errorf("completed %d sessions, want %d", ps.Completed, n)
	}
	if ps.Canceled != int64(canceled) {
		t.Errorf("pool canceled count %d, sessions observed %d", ps.Canceled, canceled)
	}
	if ps.EventsDropped != 0 {
		t.Errorf("pool dropped %d events", ps.EventsDropped)
	}

	pool.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through Pool.Close: %d, baseline %d", runtime.NumGoroutine(), before)
}
