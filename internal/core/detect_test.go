package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func detectorKinds() []DetectorKind { return []DetectorKind{DetectLockFree, DetectGlobalLock} }

// listing1 builds the paper's Listing 1: root and t2 deadlock on p and q
// while t1 runs on unrelated work. Returns the run error.
func listing1(t *testing.T, kind DetectorKind) error {
	rt := NewRuntime(WithMode(Full), WithDetector(kind))
	return run(t, rt, func(root *Task) error {
		p := NewPromiseNamed[int](root, "p")
		q := NewPromiseNamed[int](root, "q")
		if _, e := root.AsyncNamed("t1", func(t1 *Task) error {
			time.Sleep(5 * time.Millisecond) // long-running bystander
			return nil
		}); e != nil {
			return e
		}
		if _, e := root.AsyncNamed("t2", func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}, q); e != nil {
			return e
		}
		if _, e := q.Get(root); e != nil {
			return e
		}
		return p.Set(root, 1)
	})
}

func TestListing1DeadlockDetected(t *testing.T) {
	for _, kind := range detectorKinds() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			err := listing1(t, kind)
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if n := len(dl.Cycle); n != 2 {
				t.Fatalf("cycle length %d, want 2: %v", n, dl)
			}
			names := map[string]bool{}
			for _, n := range dl.Cycle {
				names[n.TaskName()] = true
			}
			if !names["main"] || !names["t2"] {
				t.Fatalf("cycle tasks %v, want main and t2", names)
			}
			if names["t1"] {
				t.Fatal("innocent bystander t1 appeared in the cycle")
			}
		})
	}
}

func TestListing1HangsWithoutDetector(t *testing.T) {
	// Under Ownership (Algorithm 1 only) the deadlock is invisible because
	// t1 keeps the program "alive": exactly the scenario from §1.
	rt := NewRuntime(WithMode(Ownership))
	err := runDeadline(rt, 300*time.Millisecond, func(root *Task) error {
		p := NewPromise[int](root)
		q := NewPromise[int](root)
		if _, e := root.Async(func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}, q); e != nil {
			return e
		}
		if _, e := q.Get(root); e != nil {
			return e
		}
		return p.Set(root, 1)
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want hang", err)
	}
}

func TestSelfDeadlock(t *testing.T) {
	// get on a promise the task itself owns: a cycle of length 1.
	for _, kind := range detectorKinds() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			rt := NewRuntime(WithMode(Full), WithDetector(kind))
			err := run(t, rt, func(root *Task) error {
				p := NewPromiseNamed[int](root, "self")
				_, e := p.Get(root)
				return e
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if len(dl.Cycle) != 1 {
				t.Fatalf("cycle = %v, want single node", dl.Cycle)
			}
		})
	}
}

func TestThreeTaskCycle(t *testing.T) {
	for _, kind := range detectorKinds() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			err := runCycleOfLength(t, 3, kind)
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
		})
	}
}

func TestLongCycle(t *testing.T) {
	err := runCycleOfLength(t, 25, DetectLockFree)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Cycle) != 25 {
		t.Fatalf("reconstructed cycle has %d nodes, want 25", len(dl.Cycle))
	}
}

// TestLongChainTraversalAllocs pins the lock-free traversal's hop
// recording at zero allocations once warm: a task that has already
// walked a 25-hop chain of blocked tasks walks it again without growing
// its hop slices. The chain ends at a task parked on a Go channel, so
// every traversal commits to the wait after the last hop.
func TestLongChainTraversalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of Puts, so the hop log is reallocated")
	}
	const hops = 25
	rt := NewRuntime(WithMode(Full), WithDetector(DetectLockFree))
	err := run(t, rt, func(root *Task) error {
		qs := make([]*Promise[int], hops+1)
		for i := range qs {
			qs[i] = NewPromiseNamed[int](root, fmt.Sprintf("q%d", i))
		}
		release := make(chan struct{})
		tail, err := root.AsyncNamed("tail", func(c *Task) error {
			<-release
			return qs[hops].Set(c, hops)
		}, qs[hops])
		if err != nil {
			return err
		}
		links := make([]*Task, hops)
		for i := hops - 1; i >= 0; i-- {
			i := i
			if links[i], err = root.AsyncNamed(fmt.Sprintf("link-%d", i), func(c *Task) error {
				v, err := qs[i+1].Get(c)
				if err != nil {
					return err
				}
				return qs[i].Set(c, v)
			}, qs[i]); err != nil {
				return err
			}
		}
		for _, l := range links {
			for l.waitingOn.Load() == nil {
				time.Sleep(time.Millisecond)
			}
		}
		verify := func() {
			if err := root.verifyAwait(&qs[0].s); err != nil {
				t.Errorf("chain reported as a cycle: %v", err)
			}
			root.waitingOn.Store(nil)
		}
		verify()
		if got := testing.AllocsPerRun(100, verify); got != 0 {
			t.Errorf("warm %d-hop traversal allocates %v/op, want 0", hops, got)
		}
		close(release)
		if v, err := qs[0].Get(root); err != nil || v != hops {
			return fmt.Errorf("chain head: got %d, %v", v, err)
		}
		return tail.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runCycleOfLength builds a ring of n tasks; task i owns p_i, awaits
// p_{(i+1) mod n}, then would set p_i. A deterministic staggering makes
// task 0 the last to arrive in most schedules, but any arrival order must
// be detected.
func runCycleOfLength(t *testing.T, n int, kind DetectorKind) error {
	rt := NewRuntime(WithMode(Full), WithDetector(kind))
	return run(t, rt, func(root *Task) error {
		ps := make([]*Promise[int], n)
		for i := range ps {
			ps[i] = NewPromiseNamed[int](root, fmt.Sprintf("p%d", i))
		}
		for i := 0; i < n; i++ {
			i := i
			if _, e := root.AsyncNamed(fmt.Sprintf("ring-%d", i), func(c *Task) error {
				if _, e := ps[(i+1)%n].Get(c); e != nil {
					return e
				}
				return ps[i].Set(c, i)
			}, ps[i]); e != nil {
				return e
			}
		}
		return nil
	})
}

func TestExactlyOneDeadlockAlarmPerCycle(t *testing.T) {
	// Theorem 5.6 guarantees at least one task alarms; the others are
	// unblocked by the cascade with BrokenPromiseError. Check the alarm
	// census on a ring.
	for trial := 0; trial < 20; trial++ {
		var alarms atomic.Int32
		rt := NewRuntime(WithMode(Full), WithAlarmHandler(func(err error) {
			var dl *DeadlockError
			if errors.As(err, &dl) {
				alarms.Add(1)
			}
		}))
		err := run(t, rt, func(root *Task) error {
			const n = 4
			ps := make([]*Promise[int], n)
			for i := range ps {
				ps[i] = NewPromiseNamed[int](root, fmt.Sprintf("p%d", i))
			}
			for i := 0; i < n; i++ {
				i := i
				if _, e := root.Async(func(c *Task) error {
					if _, e := ps[(i+1)%n].Get(c); e != nil {
						return e
					}
					return ps[i].Set(c, i)
				}, ps[i]); e != nil {
					return e
				}
			}
			return nil
		})
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("trial %d: no deadlock error: %v", trial, err)
		}
		if got := alarms.Load(); got < 1 {
			t.Fatalf("trial %d: %d deadlock alarms, want >= 1", trial, got)
		}
	}
}

func TestNoFalseAlarmOnLongChains(t *testing.T) {
	// A long dependence chain that is NOT a cycle: t_i awaits p_{i+1}
	// owned by t_{i+1}; the head keeps making progress. The detector must
	// traverse but never alarm.
	for _, kind := range detectorKinds() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			rt := NewRuntime(WithMode(Full), WithDetector(kind))
			const n = 200
			err := run(t, rt, func(root *Task) error {
				ps := make([]*Promise[int], n+1)
				for i := range ps {
					ps[i] = NewPromiseNamed[int](root, fmt.Sprintf("c%d", i))
				}
				for i := 0; i < n; i++ {
					i := i
					if _, e := root.Async(func(c *Task) error {
						v, e := ps[i+1].Get(c)
						if e != nil {
							return e
						}
						return ps[i].Set(c, v+1)
					}, ps[i]); e != nil {
						return e
					}
				}
				// The head unblocks the whole chain.
				if e := ps[n].Set(root, 0); e != nil {
					return e
				}
				v, e := ps[0].Get(root)
				if e != nil {
					return e
				}
				if v != n {
					return fmt.Errorf("chain computed %d, want %d", v, n)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentTransferNoFalseAlarm(t *testing.T) {
	// Hammer the double-read logic (Algorithm 2 line 11): promises are
	// transferred to fresh tasks while other tasks repeatedly verify waits
	// on them. No alarm may fire.
	rt := NewRuntime(WithMode(Full))
	const rounds = 300
	err := run(t, rt, func(root *Task) error {
		for i := 0; i < rounds; i++ {
			p := NewPromiseNamed[int](root, fmt.Sprintf("hot-%d", i))
			// A consumer that waits while ownership is in motion.
			consumerDone := NewPromise[struct{}](root)
			if _, e := root.Async(func(c *Task) error {
				defer consumerDone.MustSet(c, struct{}{})
				_, e := p.Get(c)
				return e
			}, consumerDone); e != nil {
				return e
			}
			// Ownership hops through two tasks before fulfilment.
			if _, e := root.Async(func(c1 *Task) error {
				if _, e := c1.Async(func(c2 *Task) error {
					return p.Set(c2, i)
				}, p); e != nil {
					return e
				}
				return nil
			}, p); e != nil {
				return e
			}
			if _, e := consumerDone.Get(root); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFulfilmentNoFalseAlarm(t *testing.T) {
	// Promises fulfilled concurrently with verification: the "progress is
	// being made" exits must win; no deadlock may be reported.
	rt := NewRuntime(WithMode(Full))
	const workers = 16
	err := run(t, rt, func(root *Task) error {
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			p := NewPromise[int](root)
			wg.Add(2)
			if _, e := root.Async(func(c *Task) error {
				defer wg.Done()
				_, e := p.Get(c)
				return e
			}); e != nil {
				return e
			}
			if _, e := root.Async(func(c *Task) error {
				defer wg.Done()
				return p.Set(c, w)
			}, p); e != nil {
				return e
			}
		}
		wg.Wait()
		stop.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTwoIndependentDeadlocks(t *testing.T) {
	// The detector must be robust to programs with more than one deadlock
	// (the waitingOn reset in the finally block): both cycles are reported.
	rt := NewRuntime(WithMode(Full))
	var dls atomic.Int32
	rt.onAlarm = func(err error) {
		var dl *DeadlockError
		if errors.As(err, &dl) {
			dls.Add(1)
		}
	}
	err := run(t, rt, func(root *Task) error {
		for k := 0; k < 2; k++ {
			a := NewPromiseNamed[int](root, fmt.Sprintf("a%d", k))
			b := NewPromiseNamed[int](root, fmt.Sprintf("b%d", k))
			if _, e := root.Async(func(c *Task) error {
				if _, e := b.Get(c); e != nil {
					return e
				}
				return a.Set(c, 1)
			}, a); e != nil {
				return e
			}
			if _, e := root.Async(func(c *Task) error {
				if _, e := a.Get(c); e != nil {
					return e
				}
				return b.Set(c, 1)
			}, b); e != nil {
				return e
			}
		}
		return nil
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v", err)
	}
	if dls.Load() < 2 {
		t.Fatalf("detected %d deadlocks, want 2", dls.Load())
	}
}

func TestDeadlockAfterRecoveryDetectorStillWorks(t *testing.T) {
	// A task survives one deadlock alarm (its Get errored) and then forms
	// a second one; the reset of waitingOn must allow detection again.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(root *Task) error {
		p := NewPromiseNamed[int](root, "first")
		if _, e := p.Get(root); e == nil {
			return errors.New("self-wait not detected")
		}
		if root.waitingOn.Load() != nil {
			return errors.New("waitingOn not reset after alarm")
		}
		q := NewPromiseNamed[int](root, "second")
		_, e := q.Get(root)
		var dl *DeadlockError
		if !errors.As(e, &dl) {
			return fmt.Errorf("second self-wait: %v", e)
		}
		p.MustSet(root, 0)
		q.MustSet(root, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCycleUnblocksViaCascade(t *testing.T) {
	// After the alarm, every other member of the cycle must terminate with
	// a BrokenPromiseError — the program does not hang.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(root *Task) error {
		p := NewPromiseNamed[int](root, "p")
		q := NewPromiseNamed[int](root, "q")
		if _, e := root.AsyncNamed("t2", func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}, q); e != nil {
			return e
		}
		_, e := q.Get(root)
		return e
	})
	// Run terminated (no t.Fatal from the timeout) and recorded both the
	// deadlock and the downstream broken promises.
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("no deadlock in %v", err)
	}
	var bp *BrokenPromiseError
	if !errors.As(err, &bp) {
		t.Fatalf("no broken-promise cascade in %v", err)
	}
}

func TestDiamondNoFalseAlarm(t *testing.T) {
	// Two tasks wait on the same promise whose owner waits on a third:
	// shared chains, no cycle.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(root *Task) error {
		top := NewPromiseNamed[int](root, "top")
		mid := NewPromiseNamed[int](root, "mid")
		if _, e := root.Async(func(c *Task) error {
			v, e := top.Get(c)
			if e != nil {
				return e
			}
			return mid.Set(c, v*2)
		}, mid); e != nil {
			return e
		}
		results := make([]*Promise[int], 2)
		for i := range results {
			results[i] = NewPromiseNamed[int](root, fmt.Sprintf("leaf%d", i))
			if _, e := root.Async(func(c *Task) error {
				v, e := mid.Get(c)
				if e != nil {
					return e
				}
				return results[i].Set(c, v+1)
			}, results[i]); e != nil {
				return e
			}
		}
		if e := top.Set(root, 10); e != nil {
			return e
		}
		for _, rp := range results {
			if v := rp.MustGet(root); v != 21 {
				return fmt.Errorf("leaf = %d, want 21", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	err := listing1(t, DetectLockFree)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatal(err)
	}
	msg := dl.Error()
	for _, want := range []string{"deadlock cycle", "awaits"} {
		if !containsStr(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestGlobalLockDetectorCleanProgram(t *testing.T) {
	rt := NewRuntime(WithMode(Full), WithDetector(DetectGlobalLock))
	err := run(t, rt, func(root *Task) error {
		for i := 0; i < 100; i++ {
			p := NewPromise[int](root)
			if _, e := root.Async(func(c *Task) error { return p.Set(c, i) }, p); e != nil {
				return e
			}
			if v := p.MustGet(root); v != i {
				return fmt.Errorf("round %d got %d", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetectionIsImmediate(t *testing.T) {
	// The alarm must fire at cycle formation even though other tasks are
	// still running — the property Go's whole-program detector lacks (§1).
	rt := NewRuntime(WithMode(Full))
	busy := make(chan struct{})
	start := time.Now()
	var detectedAt time.Duration
	err := run(t, rt, func(root *Task) error {
		if _, e := root.AsyncNamed("server", func(c *Task) error {
			<-busy // simulated long-running service
			return nil
		}); e != nil {
			return e
		}
		p := NewPromiseNamed[int](root, "p")
		_, e := p.Get(root) // self-cycle
		detectedAt = time.Since(start)
		close(busy)
		if e == nil {
			return errors.New("no alarm")
		}
		return p.Set(root, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if detectedAt > 5*time.Second {
		t.Fatalf("detection took %v; should be immediate", detectedAt)
	}
}
