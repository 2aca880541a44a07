package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// cleanProg spawns four children, each fulfilling one moved promise, and
// joins through them — a well-behaved concurrent session.
func cleanProg(root *core.Task) error {
	var ps []*core.Promise[int]
	for i := 0; i < 4; i++ {
		p := core.NewPromise[int](root)
		ps = append(ps, p)
		i := i
		if _, err := root.Async(func(c *core.Task) error {
			return p.Set(c, i)
		}, p); err != nil {
			return err
		}
	}
	for i, p := range ps {
		v, err := p.Get(root)
		if err != nil {
			return err
		}
		if v != i {
			return fmt.Errorf("got %d want %d", v, i)
		}
	}
	return nil
}

// deadlockProg is the paper's Listing 1: root and the child wait on each
// other's promise. Under Full mode the detector reports the cycle and both
// waits abort, so the session terminates with a DeadlockError.
func deadlockProg(root *core.Task) error {
	p := core.NewPromise[int](root)
	q := core.NewPromise[int](root)
	if _, err := root.Async(func(t2 *core.Task) error {
		if _, err := p.Get(t2); err != nil {
			return err
		}
		return q.Set(t2, 1)
	}, q); err != nil {
		return err
	}
	if _, err := q.Get(root); err != nil {
		return err
	}
	return p.Set(root, 1)
}

// TestPoolMixedSessionsIsolationAndDrain is the serving layer's core
// contract, exercised under -race by the tier-1 suite: >= 8 concurrent
// sessions mixing clean and deadlocking programs over one shared
// scheduler must (1) each receive exactly their own verdict, (2) drop no
// trace events, and (3) leave no goroutine behind once Pool.Close
// returns.
func TestPoolMixedSessionsIsolationAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(Config{
		MaxSessions: 8,
		QueueDepth:  32,
		Runtime:     []core.Option{core.WithMode(core.Full), core.TraceTo(trace.NewMemSink(4096))},
	})

	const n = 24
	var sessions [n]*Session
	for i := 0; i < n; i++ {
		prog, name := core.TaskFunc(cleanProg), "clean"
		if i%3 == 2 {
			prog, name = deadlockProg, "cycle"
		}
		s, err := pool.Submit(t.Context(), fmt.Sprintf("%s-%d", name, i), prog)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		sessions[i] = s
	}

	for i, s := range sessions {
		err := s.Wait()
		want := VerdictClean
		if i%3 == 2 {
			want = VerdictDeadlock
		}
		if got := s.Verdict(); got != want {
			t.Errorf("session %s: verdict %s want %s (err: %v)", s.Name(), got, want, err)
		}
		if want == VerdictClean && err != nil {
			t.Errorf("session %s: clean program failed: %v", s.Name(), err)
		}
		if want == VerdictDeadlock {
			var dl *core.DeadlockError
			if !errors.As(err, &dl) {
				t.Errorf("session %s: no DeadlockError in %v", s.Name(), err)
			}
		}
		st, ok := s.Stats()
		if !ok {
			t.Fatalf("session %s: Stats not ready after Wait", s.Name())
		}
		if st.EventsDropped != 0 {
			t.Errorf("session %s: %d dropped trace events", s.Name(), st.EventsDropped)
		}
		if st.Tasks == 0 {
			t.Errorf("session %s: no tasks recorded", s.Name())
		}
		// Deterministically stop the session's trace collector so the
		// drain check below sees only pool-owned goroutines.
		if err := s.Runtime().TraceClose(); err != nil {
			t.Errorf("session %s: TraceClose: %v", s.Name(), err)
		}
	}

	ps := pool.Stats()
	wantDeadlocks := int64(n / 3)
	if ps.Completed != n || ps.Clean != n-wantDeadlocks || ps.Deadlocks != wantDeadlocks {
		t.Errorf("pool stats: completed=%d clean=%d deadlocks=%d, want %d/%d/%d",
			ps.Completed, ps.Clean, ps.Deadlocks, n, n-wantDeadlocks, wantDeadlocks)
	}
	if ps.Peak > 8 {
		t.Errorf("peak in-flight %d exceeded MaxSessions 8", ps.Peak)
	}
	if ps.EventsDropped != 0 {
		t.Errorf("pool dropped %d events", ps.EventsDropped)
	}

	pool.Close()
	if st := pool.Executor().SchedStats(); st.Live != 0 || st.Busy != 0 {
		t.Fatalf("after Close: live=%d busy=%d workers", st.Live, st.Busy)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through Pool.Close: %d, baseline %d", runtime.NumGoroutine(), before)
}

func TestPoolAdmissionQueueAndReject(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 2, QueueDepth: 1})
	gate := make(chan struct{})
	block := func(t *core.Task) error { <-gate; return nil }

	s1, err := pool.Submit(t.Context(), "s1", block)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pool.Submit(t.Context(), "s2", block)
	if err != nil {
		t.Fatal(err)
	}
	// Both slots will be taken; wait until they are running so the third
	// submission must queue rather than race for a slot.
	waitInFlight(t, pool, 2)
	s3, err := pool.Submit(t.Context(), "s3", block)
	if err != nil {
		t.Fatalf("queue admission failed: %v", err)
	}
	if _, err := pool.Submit(t.Context(), "s4", block); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("expected ErrPoolSaturated, got %v", err)
	}
	close(gate)
	for _, s := range []*Session{s1, s2, s3} {
		if err := s.Wait(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if s.Verdict() != VerdictClean {
			t.Fatalf("%s: verdict %s", s.Name(), s.Verdict())
		}
	}
	if s3.QueueLatency() < 0 {
		t.Fatalf("negative queue latency: %v", s3.QueueLatency())
	}
	pool.Close()
	if _, err := pool.Submit(t.Context(), "s5", block); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("expected ErrPoolClosed, got %v", err)
	}
	ps := pool.Stats()
	if ps.Submitted != 3 || ps.Rejected != 2 || ps.Completed != 3 {
		t.Fatalf("stats: submitted=%d rejected=%d completed=%d, want 3/2/3",
			ps.Submitted, ps.Rejected, ps.Completed)
	}
}

func waitInFlight(t *testing.T, p *Pool, want int64) {
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

func TestPoolCloseFailsQueuedSessionsPromptly(t *testing.T) {
	// Regression (ctx redesign): a session blocked in the admission queue
	// used to ride out the whole drain — it would sit in its slot wait
	// until every running session finished, then RUN. Close must instead
	// fail it with ErrPoolClosed promptly, while running sessions still
	// drain normally.
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: 4})
	gate := make(chan struct{})
	first, err := pool.Submit(t.Context(), "first", func(t *core.Task) error { <-gate; return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)
	var queued []*Session
	for i := 0; i < 4; i++ {
		s, err := pool.Submit(t.Context(), "", func(t *core.Task) error { return nil })
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, s)
	}
	done := make(chan struct{})
	go func() { pool.Close(); close(done) }()
	// The queued sessions must fail while the first session is STILL
	// running — that is the "promptly" in the contract. Their Wait has a
	// deadline well short of the gate release below.
	for i, s := range queued {
		select {
		case <-s.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("queued session %d still pending during drain", i)
		}
		if err := s.Err(); !errors.Is(err, ErrPoolClosed) {
			t.Errorf("queued session %d: err %v, want ErrPoolClosed", i, err)
		}
		if v := s.Verdict(); v != VerdictCanceled {
			t.Errorf("queued session %d: verdict %s, want canceled", i, v)
		}
	}
	select {
	case <-done:
		t.Fatal("Close returned while a session was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-done
	if err := first.Wait(); err != nil {
		t.Fatalf("running session failed: %v", err)
	}
	ps := pool.Stats()
	if ps.Completed != 5 || ps.Canceled != 4 || ps.Clean != 1 {
		t.Fatalf("stats: completed=%d canceled=%d clean=%d, want 5/4/1",
			ps.Completed, ps.Canceled, ps.Clean)
	}
}

func TestClassify(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 2})
	defer pool.Close()

	cases := []struct {
		name string
		prog core.TaskFunc
		want Verdict
	}{
		{"clean", cleanProg, VerdictClean},
		{"deadlock", deadlockProg, VerdictDeadlock},
		{"omitted", func(root *core.Task) error {
			core.NewPromise[int](root) // owned, never set: rule-3 violation
			return nil
		}, VerdictPolicy},
		{"failed", func(root *core.Task) error {
			return errors.New("application error")
		}, VerdictFailed},
		{"canceled", func(root *core.Task) error {
			// A body reporting its caller gave up classifies as canceled,
			// not failed — the program was not convicted of anything.
			return context.Canceled
		}, VerdictCanceled},
	}
	for _, tc := range cases {
		s, err := pool.Submit(t.Context(), tc.name, tc.prog)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.Wait()
		if got := s.Verdict(); got != tc.want {
			t.Errorf("%s: verdict %s want %s (err: %v)", tc.name, got, tc.want, s.Err())
		}
	}
}

func TestPoolWaitThenSubmitFindsFreedSlot(t *testing.T) {
	// Regression: the session used to release its slot only after
	// signalling Done, so Wait-then-Submit on a full, queueless pool could
	// race the release and get a spurious ErrPoolSaturated.
	pool := NewPool(Config{MaxSessions: 1, QueueDepth: 0})
	defer pool.Close()
	for i := 0; i < 200; i++ {
		s, err := pool.Submit(t.Context(), "", func(t *core.Task) error { return nil })
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if ps := pool.Stats(); ps.Rejected != 0 {
		t.Fatalf("%d spurious rejections on a strictly sequential load", ps.Rejected)
	}
}

func TestSessionSchedStats(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1})
	defer pool.Close()
	s, err := pool.Submit(t.Context(), "acct", cleanProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	submitted, inflight := s.SchedStats()
	// cleanProg runs the root plus four children through the executor.
	if submitted != 5 {
		t.Fatalf("session submitted %d tasks, want 5", submitted)
	}
	// Every task has finished by the time Wait returns.
	if inflight != 0 {
		t.Fatalf("session inflight %d after Wait, want 0", inflight)
	}
}

// TestNoopSessionAllocs pins what a session costs the serving layer: a
// no-op Submit+Wait allocates the Session, its done channel, the Runtime
// and the root Task, and nothing else — no options object, no option
// list, no closure around the session job or its root.
func TestNoopSessionAllocs(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 1, IdleTimeout: time.Hour})
	defer pool.Close()
	ctx := context.Background()
	noop := func(*core.Task) error { return nil }
	run := func() {
		s, err := pool.Submit(ctx, "noop", noop)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		run()
	}
	if got := testing.AllocsPerRun(1000, run); got > 4 {
		t.Errorf("no-op session: %v allocs/op, want at most 4", got)
	}
}

// TestListing1SessionAllocs pins what a Listing-1 session costs end to
// end: the no-op session's four objects, the child task and the two
// promises, the detector's cycle, both omitted sets and the cascade, the
// report that holds them, and its one rendering, as the front renders
// every verdict it sends.
func TestListing1SessionAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of Puts, so the hop log is reallocated")
	}
	pool := NewPool(Config{MaxSessions: 1, IdleTimeout: time.Hour})
	defer pool.Close()
	ctx := context.Background()
	run := func() {
		s, err := pool.Submit(ctx, "listing1", deadlockProg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Wait() == nil || s.Verdict() != VerdictDeadlock {
			t.Fatalf("Listing 1: verdict %s, err %v", s.Verdict(), s.Err())
		}
		_ = s.Err().Error()
	}
	for i := 0; i < 100; i++ {
		run()
	}
	// The global-lock detector adds its waits-for map, that map's first
	// entry and a regrowth of the cycle.
	want := 24
	if core.EnvDetector() == core.DetectGlobalLock {
		want = 27
	}
	if got := testing.AllocsPerRun(500, run); got > float64(want) {
		t.Errorf("Listing-1 session: %v allocs/op, want at most %d", got, want)
	}
}

// TestClassifyAllocs pins Classify on Listing 1's report at zero
// allocations: it walks the tree with a type switch, not errors.As.
func TestClassifyAllocs(t *testing.T) {
	err := core.NewRuntime(core.WithMode(core.Full)).Run(deadlockProg)
	if Classify(err) != VerdictDeadlock {
		t.Fatalf("Listing 1 classifies as %s: %v", Classify(err), err)
	}
	if got := testing.AllocsPerRun(1000, func() { _ = Classify(err) }); got != 0 {
		t.Fatalf("Classify: %v allocs/op, want 0", got)
	}
}

// classifyByAs is Classify as errors.As and errors.Is compute it: the
// reference its single walk must agree with.
func classifyByAs(err error) Verdict {
	if err == nil {
		return VerdictClean
	}
	var dl *core.DeadlockError
	if errors.As(err, &dl) {
		return VerdictDeadlock
	}
	var ce *core.CanceledError
	if errors.As(err, &ce) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrPoolClosed) {
		return VerdictCanceled
	}
	var (
		om *core.OmittedSetError
		ow *core.OwnershipError
		ds *core.DoubleSetError
		bp *core.BrokenPromiseError
	)
	if errors.As(err, &om) || errors.As(err, &ow) || errors.As(err, &ds) || errors.As(err, &bp) {
		return VerdictPolicy
	}
	return VerdictFailed
}

// cancelIs is an error that claims, through its Is method only, to be
// context.Canceled.
type cancelIs struct{}

func (cancelIs) Error() string        { return "gave up" }
func (cancelIs) Is(target error) bool { return target == context.Canceled }

// TestClassifyPrecedence checks Classify against classifyByAs on trees
// that put the verdict classes at every depth and in every order.
func TestClassifyPrecedence(t *testing.T) {
	dl := core.NewRuntime(core.WithMode(core.Full)).Run(deadlockProg)
	om := core.NewRuntime(core.WithMode(core.Full)).Run(func(root *core.Task) error {
		core.NewPromise[int](root)
		return nil
	})
	canceled := &core.CanceledError{Cause: context.Canceled}
	boom := errors.New("boom")
	for _, err := range []error{
		nil, boom, dl, om, canceled, context.Canceled, context.DeadlineExceeded, ErrPoolClosed, cancelIs{},
		fmt.Errorf("wrapped: %w", context.DeadlineExceeded),
		fmt.Errorf("wrapped: %w", dl),
		errors.Join(boom, om),
		errors.Join(om, canceled),
		errors.Join(canceled, dl),
		errors.Join(boom, errors.Join(om, fmt.Errorf("deep: %w", cancelIs{}))),
		errors.Join(om, ErrDeadlineInfeasible),
		&DeadlineInfeasibleError{},
	} {
		if got, want := Classify(err), classifyByAs(err); got != want {
			t.Errorf("Classify(%v) = %s, errors.As says %s", err, got, want)
		}
	}
}

// TestSessionAccountingExactAcrossSteals: two sessions fan out skewed
// bursts at once over one pool, one child at a time and as an AsyncBatch,
// so the shared workers steal each other's queued tasks. A steal moves a
// task, never its attribution: each session's runtime counts the tasks
// it started and finished wherever they ran, so after Wait the session
// reports exactly its own task count submitted and nothing in flight.
func TestSessionAccountingExactAcrossSteals(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 2, IdleTimeout: time.Second})
	defer pool.Close()
	fan := func(n int) core.TaskFunc {
		return func(root *core.Task) error {
			ps := make([]*core.Promise[int], n)
			specs := make([]core.SpawnSpec, n/2)
			for i := range ps {
				ps[i] = core.NewPromise[int](root)
				p := ps[i]
				body := func(c *core.Task) error { return p.Set(c, 1) }
				if i < len(specs) {
					specs[i] = core.SpawnSpec{Body: body, Moved: []core.Movable{p}}
				} else if _, err := root.Async(body, p); err != nil {
					return err
				}
			}
			if _, err := root.AsyncBatch(specs); err != nil {
				return err
			}
			for _, p := range ps {
				if _, err := p.Get(root); err != nil {
					return err
				}
			}
			return nil
		}
	}
	before := pool.Executor().SchedStats()
	sizes := map[string]int{"a": 600, "b": 150}
	sessions := map[string]*Session{}
	for name, n := range sizes {
		s, err := pool.Submit(t.Context(), name, fan(n))
		if err != nil {
			t.Fatal(err)
		}
		sessions[name] = s
	}
	for name, s := range sessions {
		if err := s.Wait(); err != nil {
			t.Fatalf("session %s: %v", name, err)
		}
		st, _ := s.Stats()
		submitted, inflight := s.SchedStats()
		if want := int64(sizes[name] + 1); submitted != want || st.Tasks != want {
			t.Errorf("session %s: submitted %d, runtime ran %d; want %d (root + children)", name, submitted, st.Tasks, want)
		}
		if inflight != 0 {
			t.Errorf("session %s: %d tasks in flight after Wait", name, inflight)
		}
	}
	after := pool.Executor().SchedStats()
	t.Logf("%d steals over %d submissions", after.Steals-before.Steals,
		after.Spawned+after.Reused-before.Spawned-before.Reused)
}
