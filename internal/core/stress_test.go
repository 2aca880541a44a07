package core

// Adversarial stress for Algorithm 2's concurrency story: ownership
// transfers, fulfilments, and verifications all racing. Run with -race
// these tests double as a mechanized check of the §5.1 consistency
// argument as embodied by Go's atomics.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestStressTransferStorm: promises hop ownership through chains of tasks
// while dedicated waiters block on them. The double-read in the traversal
// must never misread a moving owner as a cycle.
func TestStressTransferStorm(t *testing.T) {
	rounds := 200
	if raceEnabled {
		rounds = 50
	}
	rt := NewRuntime(WithMode(Full))
	var falseAlarms atomic.Int32
	rt.onAlarm = func(err error) {
		var dl *DeadlockError
		if errors.As(err, &dl) {
			falseAlarms.Add(1)
		}
	}
	err := run(t, rt, func(root *Task) error {
		for r := 0; r < rounds; r++ {
			p := NewPromiseNamed[int](root, fmt.Sprintf("storm-%d", r))
			waiters := make([]*Promise[struct{}], 4)
			for w := range waiters {
				waiters[w] = NewPromise[struct{}](root)
				done := waiters[w]
				if _, e := root.Async(func(c *Task) error {
					if _, e := p.Get(c); e != nil {
						return e
					}
					return done.Set(c, struct{}{})
				}, done); e != nil {
					return e
				}
			}
			// Ownership hops depth-4 before the set.
			if _, e := root.Async(func(c1 *Task) error {
				_, e := c1.Async(func(c2 *Task) error {
					_, e := c2.Async(func(c3 *Task) error {
						return p.Set(c3, r)
					}, p)
					return e
				}, p)
				return e
			}, p); e != nil {
				return e
			}
			for _, w := range waiters {
				if _, e := w.Get(root); e != nil {
					return e
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if falseAlarms.Load() > 0 {
		t.Fatalf("%d false deadlock alarms during transfer storm", falseAlarms.Load())
	}
}

// TestStressRandomTopology: randomized fan-out trees with cross-waits,
// seeded per trial; all must complete alarm-free in Full mode.
func TestStressRandomTopology(t *testing.T) {
	trials := 30
	if raceEnabled {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rt := NewRuntime(WithMode(Full))
		err := run(t, rt, func(root *Task) error {
			n := 20 + rng.Intn(40)
			ps := make([]*Promise[int], n)
			for i := range ps {
				ps[i] = NewPromise[int](root)
			}
			for i := 0; i < n; i++ {
				i := i
				// Each task may wait on a strictly smaller index before
				// setting its own promise: acyclic by construction.
				waitIdx := -1
				if i > 0 && rng.Intn(2) == 0 {
					waitIdx = rng.Intn(i)
				}
				if _, e := root.Async(func(c *Task) error {
					if waitIdx >= 0 {
						if _, e := ps[waitIdx].Get(c); e != nil {
							return e
						}
					}
					return ps[i].Set(c, i)
				}, ps[i]); e != nil {
					return e
				}
			}
			for i := n - 1; i >= 0; i-- {
				if _, e := ps[i].Get(root); e != nil {
					return e
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestStressCycleAmongNoise: a genuine 3-cycle embedded in heavy innocent
// traffic must still be detected, and only the cycle's tasks may fail.
func TestStressCycleAmongNoise(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(root *Task) error {
		// Innocent traffic: 50 producer/consumer pairs.
		for i := 0; i < 50; i++ {
			p := NewPromise[int](root)
			if _, e := root.Async(func(c *Task) error { return p.Set(c, i) }, p); e != nil {
				return e
			}
			if _, e := root.Async(func(c *Task) error {
				_, e := p.Get(c)
				return e
			}); e != nil {
				return e
			}
		}
		// The cycle.
		const k = 3
		ring := make([]*Promise[int], k)
		for i := range ring {
			ring[i] = NewPromiseNamed[int](root, fmt.Sprintf("noise-ring-%d", i))
		}
		for i := 0; i < k; i++ {
			i := i
			if _, e := root.AsyncNamed(fmt.Sprintf("ring-%d", i), func(c *Task) error {
				if _, e := ring[(i+1)%k].Get(c); e != nil {
					return e
				}
				return ring[i].Set(c, 0)
			}, ring[i]); e != nil {
				return e
			}
		}
		return nil
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("cycle not found among noise: %v", err)
	}
	for _, n := range dl.Cycle {
		if len(n.TaskName()) < 5 || n.TaskName()[:5] != "ring-" {
			t.Fatalf("innocent task %q reported in the cycle", n.TaskName())
		}
	}
}

// TestStressRepeatedRunsSameRuntimeFamily: many short programs back to
// back, alternating modes, checking the runtime has no cross-program
// state.
func TestStressRepeatedRunsSameRuntimeFamily(t *testing.T) {
	for i := 0; i < 60; i++ {
		mode := []Mode{Unverified, Ownership, Full}[i%3]
		rt := NewRuntime(WithMode(mode))
		err := run(t, rt, func(root *Task) error {
			p := NewPromise[int](root)
			if _, e := root.Async(func(c *Task) error { return p.Set(c, i) }, p); e != nil {
				return e
			}
			v, e := p.Get(root)
			if e != nil {
				return e
			}
			if v != i {
				return fmt.Errorf("v = %d", v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("iteration %d (%v): %v", i, mode, err)
		}
	}
}

// TestStressManyWaitersOneCycle: dozens of innocent tasks blocked on a
// promise owned by a task inside a deadlock cycle are all drained by the
// cascade with BrokenPromiseError — nobody hangs.
func TestStressManyWaitersOneCycle(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	var broken atomic.Int32
	err := run(t, rt, func(root *Task) error {
		a := NewPromiseNamed[int](root, "a")
		b := NewPromiseNamed[int](root, "b")
		for i := 0; i < 32; i++ {
			if _, e := root.Async(func(c *Task) error {
				_, e := a.Get(c)
				var bp *BrokenPromiseError
				if errors.As(e, &bp) {
					broken.Add(1)
					return nil
				}
				return e
			}); e != nil {
				return e
			}
		}
		if _, e := root.AsyncNamed("cyc1", func(c *Task) error {
			if _, e := b.Get(c); e != nil {
				return e
			}
			return a.Set(c, 1)
		}, a); e != nil {
			return e
		}
		if _, e := root.AsyncNamed("cyc2", func(c *Task) error {
			if _, e := a.Get(c); e != nil {
				return e
			}
			return b.Set(c, 1)
		}, b); e != nil {
			return e
		}
		return nil
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("no deadlock: %v", err)
	}
	if broken.Load() != 32 {
		t.Fatalf("%d/32 innocent waiters drained", broken.Load())
	}
}
