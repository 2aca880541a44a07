package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// detectorConfigs sweeps the Full-mode waits the cancellation path must
// unwind correctly: the lock-free Algorithm 2 and the global-lock
// ablation, whose cancel path must additionally withdraw the edge from
// the locked graph.
func detectorConfigs() []DetectorKind { return []DetectorKind{DetectLockFree, DetectGlobalLock} }

func TestGetContextCancelUnblocks(t *testing.T) {
	for _, det := range detectorConfigs() {
		t.Run(det.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(Full), WithDetector(det))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "slow")
				release := make(chan struct{})
				if _, e := tk.Async(func(c *Task) error {
					<-release
					return p.Set(c, 7)
				}, p); e != nil {
					return e
				}
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(10 * time.Millisecond)
					cancel()
				}()
				_, e := p.GetContext(ctx, tk)
				var ce *CanceledError
				if !errors.As(e, &ce) {
					return fmt.Errorf("canceled GetContext = %v, want CanceledError", e)
				}
				if ce.PromiseLabel != "slow" || ce.TaskName != "main" {
					return fmt.Errorf("blame = task %q promise %q", ce.TaskName, ce.PromiseLabel)
				}
				if !errors.Is(e, context.Canceled) {
					return fmt.Errorf("CanceledError does not unwrap to context.Canceled: %v", e)
				}
				// The abandoned promise is untouched: still unfulfilled,
				// still owned by the child, still retryable. Release the
				// producer and take the value with a plain Get.
				if p.Fulfilled() {
					return errors.New("cancellation fulfilled the promise")
				}
				close(release)
				v, e := p.Get(tk)
				if e != nil || v != 7 {
					return fmt.Errorf("retry after cancel = %d, %v", v, e)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGetContextFailsFastWhenAlreadyCanceled(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error { return p.Set(c, 1) }, p); e != nil {
			return e
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, e := p.GetContext(ctx, tk)
		var ce *CanceledError
		if !errors.As(e, &ce) {
			return fmt.Errorf("dead-ctx GetContext = %v", e)
		}
		if d := time.Since(start); d > time.Second {
			return fmt.Errorf("fail-fast took %v", d)
		}
		// Drain the child's value so the run ends cleanly.
		_, e = p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetContextFulfilledBeatsDeadContext(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if e := p.Set(tk, 42); e != nil {
			return e
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		v, e := p.GetContext(ctx, tk)
		if e != nil || v != 42 {
			return fmt.Errorf("fulfilled GetContext under dead ctx = %d, %v", v, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetContextDeadlockBeatsDeadline(t *testing.T) {
	// The precise alarm always wins over the imprecise deadline: a wait
	// that would complete a cycle reports the DeadlockError at the moment
	// it would block, not a CanceledError minutes later.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "p")
		q := NewPromiseNamed[int](tk, "q")
		if _, e := tk.Async(func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}, q); e != nil {
			return e
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		start := time.Now()
		// Whichever waiter blocks last closes the cycle and gets the
		// DeadlockError; the other is rescued by the omitted-set cascade.
		// Either way this wait must end in something PRECISE, promptly —
		// never in the deadline's CanceledError.
		_, e := q.GetContext(ctx, tk)
		if e == nil {
			return errors.New("cycle-closing GetContext returned nil")
		}
		var ce *CanceledError
		if errors.As(e, &ce) {
			return fmt.Errorf("the deadline beat the detector: %v", e)
		}
		if time.Since(start) > 30*time.Second {
			return errors.New("the detector waited for the deadline")
		}
		// Returned, not swallowed: when root is the waiter that closes
		// the cycle, e is the only record of the DeadlockError. Root
		// still dies owning p, so the cascade unblocks t2 either way.
		return e
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("no DeadlockError recorded for the cycle: %v", err)
	}
}

func TestRunContextStructuredCancellation(t *testing.T) {
	// Cancelling the run scope is cancelling the root task: every
	// descendant's PLAIN Get — no per-call ctx anywhere — unblocks, the
	// tree unwinds, and the ownership policy still reports the omitted
	// sets with blame on the way down.
	for _, det := range detectorConfigs() {
		t.Run(det.String(), func(t *testing.T) {
			rt, mem := memTraced(4096, WithMode(Full), WithDetector(det))
			ctx, cancel := context.WithCancel(context.Background())
			var blocked atomic.Int32
			// Cancel once the three waiters are parked. The blocked chain is
			// deliberately ACYCLIC — it sinks into a runnable spinner task —
			// so the precise detector has nothing to alarm about and every
			// wake in the trace comes from the cancellation (or from the
			// spinner's farewell Set racing it).
			go func() {
				for blocked.Load() < 3 {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(time.Millisecond)
				cancel()
			}()
			errCh := make(chan error, 1)
			go func() {
				errCh <- rt.RunContext(ctx, func(root *Task) error {
					owed := NewPromiseNamed[int](root, "owed") // never set: blame at root
					_ = owed
					sig := NewPromiseNamed[int](root, "sig")
					// The live task of §1: runnable throughout, so no cycle can
					// close through it and whole-program quiescence never holds.
					// It cooperates with cancellation via Task.Context.
					if _, e := root.AsyncNamed("spinner", func(c *Task) error {
						for c.Context().Err() == nil {
							time.Sleep(100 * time.Microsecond)
						}
						// Let the canceled waits win their selects decisively
						// before the farewell fulfilment arrives.
						time.Sleep(20 * time.Millisecond)
						return sig.Set(c, 1)
					}, sig); e != nil {
						return e
					}
					if _, e := root.AsyncNamed("debtor", func(c *Task) error {
						leaked := NewPromiseNamed[int](c, "leaked")
						if _, e := c.AsyncNamed("grand", func(g *Task) error {
							blocked.Add(1)
							// Returns owning "leaked": omitted-set blame plus a
							// broken-promise cascade up to the debtor.
							return Await(g, sig)
						}, leaked); e != nil {
							return e
						}
						blocked.Add(1)
						_, e := leaked.Get(c) // blocked on grand
						return e
					}); e != nil {
						return e
					}
					blocked.Add(1)
					_, e := sig.Get(root) // plain ctx-less wait, rescued by the run scope
					return e
				})
			}()
			var err error
			select {
			case err = <-errCh:
			case <-time.After(testTimeout):
				t.Fatal("canceled run did not unwind")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled in the chain", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("RunContext = %v, want CanceledError", err)
			}
			// Blame on the way down: root and debtor died owing promises.
			var om *OmittedSetError
			if !errors.As(err, &om) {
				t.Fatalf("no omitted-set blame in %v", err)
			}
			// The trace of the cancelled run must still verify offline:
			// terminated, every block closed, every alarm re-derived, and
			// NO deadlock alarms (cancellation is not a cycle).
			rep := trace.Verify(mem.Snapshot())
			if !rep.Consistent() || !rep.Terminated {
				t.Fatalf("canceled-run trace: %s\nproblems: %v", rep.Summary(), rep.Problems)
			}
			if rep.Deadlocks != 0 {
				t.Fatalf("cancellation produced %d false deadlock alarms", rep.Deadlocks)
			}
			if rt.EventsDropped() != 0 {
				t.Fatalf("%d events dropped", rt.EventsDropped())
			}
		})
	}
}

func TestRunContextWithoutCancelIsPlainRun(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := rt.RunContext(context.Background(), func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error { return p.Set(c, 3) }, p); e != nil {
			return e
		}
		v, e := p.Get(tk)
		if e != nil || v != 3 {
			return fmt.Errorf("got %d, %v", v, e)
		}
		if tk.Context() != context.Background() {
			return errors.New("Task.Context() under an uncancellable run is not Background")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTaskContextExposesRunScope(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rt := NewRuntime(WithMode(Full))
	err := rt.RunContext(ctx, func(tk *Task) error {
		if got := tk.Context().Value(key{}); got != "v" {
			return fmt.Errorf("Task.Context() value = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDetachedLeavesHangFrozen(t *testing.T) {
	// The comparator contract: RunDetached does NOT cancel. The blocked
	// task stays blocked past the deadline — that is what makes the hang
	// observable to snapshots — and the deadline's cause is reported.
	rt := NewRuntime(WithMode(Unverified))
	var stillBlocked atomic.Bool
	stillBlocked.Store(true)
	ctx, cancel := context.WithTimeoutCause(context.Background(), 50*time.Millisecond, ErrTimeout)
	defer cancel()
	err := rt.RunDetached(ctx, func(tk *Task) error {
		p := NewPromise[int](tk)
		_, e := p.Get(tk) // hangs forever: nobody sets p, nothing cancels
		stillBlocked.Store(false)
		return e
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("RunDetached = %v, want ErrTimeout cause", err)
	}
	time.Sleep(50 * time.Millisecond)
	if !stillBlocked.Load() {
		t.Fatal("RunDetached cancelled the blocked wait; the hang should stay frozen")
	}
}

func TestTimedWaitKeepsSentinelAndLogsCancelWake(t *testing.T) {
	// A timed wait (GetContext under a deadline ctx carrying the
	// ErrAwaitTimeout cause) stays errors.Is-matchable against the bare
	// sentinel, and its expired wait closes the block/wake pair with a
	// "cancel" wake the offline verifier accepts.
	rt, mem := memTraced(256, WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error {
			time.Sleep(100 * time.Millisecond)
			return p.Set(c, 1)
		}, p); e != nil {
			return e
		}
		if _, e := timeoutGet(p, tk, 2*time.Millisecond); !errors.Is(e, ErrAwaitTimeout) {
			return fmt.Errorf("timed wait = %v, want ErrAwaitTimeout", e)
		}
		_, e := p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCancelWake := false
	for _, e := range mem.Snapshot() {
		if e.Kind == EvWake && e.Detail == "cancel" {
			sawCancelWake = true
		}
	}
	if !sawCancelWake {
		t.Fatal("expired timed wait logged no wake(cancel)")
	}
	if rep := trace.Verify(mem.Snapshot()); !rep.Clean() {
		t.Fatalf("timed-out-but-clean run fails offline verification: %s\n%v", rep.Summary(), rep.Problems)
	}
}

func TestRunContextLateCancelDoesNotTaintCleanRun(t *testing.T) {
	// Run-level fulfilment-beats-cancellation: if the scope expires
	// without having disturbed a single wait, the run's result stands —
	// a deadline cannot manufacture a canceled verdict for delivered work.
	rt := NewRuntime(WithMode(Full))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := rt.RunContext(ctx, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error { return p.Set(c, 1) }, p); e != nil {
			return e
		}
		if _, e := p.Get(tk); e != nil {
			return e
		}
		cancel() // the scope ends only after every wait has completed
		return nil
	})
	if err != nil {
		t.Fatalf("clean run under a late-expiring scope = %v, want nil", err)
	}
}
