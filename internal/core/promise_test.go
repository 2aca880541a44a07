package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const testTimeout = 20 * time.Second

// run executes main under rt with a safety timeout so a buggy detector
// cannot hang the test binary.
func run(t *testing.T, rt *Runtime, main TaskFunc) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(testTimeout):
		t.Fatalf("program did not terminate within %v", testTimeout)
		return nil
	}
}

func allModes() []Mode { return []Mode{Unverified, Ownership, Full} }

func TestGetReturnsSetValue(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromise[int](tk)
				if e := p.Set(tk, 42); e != nil {
					return e
				}
				v, e := p.Get(tk)
				if e != nil {
					return e
				}
				if v != 42 {
					return fmt.Errorf("got %d, want 42", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGetBlocksUntilSet(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			var order atomic.Int32
			err := run(t, rt, func(tk *Task) error {
				p := NewPromise[string](tk)
				if _, e := tk.Async(func(c *Task) error {
					time.Sleep(20 * time.Millisecond)
					order.CompareAndSwap(0, 1) // setter first
					return p.Set(c, "hello")
				}, p); e != nil {
					return e
				}
				v, e := p.Get(tk)
				order.CompareAndSwap(1, 2)
				if e != nil {
					return e
				}
				if v != "hello" {
					return fmt.Errorf("got %q", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if order.Load() != 2 {
				t.Fatalf("get did not block until set (order=%d)", order.Load())
			}
		})
	}
}

func TestManyGettersOnePromise(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	const readers = 32
	var got atomic.Int64
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		for i := 0; i < readers; i++ {
			if _, e := tk.Async(func(c *Task) error {
				v, e := p.Get(c)
				if e != nil {
					return e
				}
				got.Add(int64(v))
				return nil
			}); e != nil {
				return e
			}
		}
		return p.Set(tk, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != readers*3 {
		t.Fatalf("sum=%d want %d", got.Load(), readers*3)
	}
}

func TestDoubleSetIsErrorInEveryMode(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			var setErr error
			err := run(t, rt, func(tk *Task) error {
				p := NewPromise[int](tk)
				if e := p.Set(tk, 1); e != nil {
					return e
				}
				setErr = p.Set(tk, 2)
				v, _ := p.Get(tk)
				if v != 1 {
					return fmt.Errorf("second set overwrote value: %d", v)
				}
				return nil
			})
			_ = err
			var ds *DoubleSetError
			if !errors.As(setErr, &ds) {
				t.Fatalf("double set returned %v, want DoubleSetError", setErr)
			}
		})
	}
}

func TestSetErrorPropagatesToGetters(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	sentinel := errors.New("payload failed")
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error {
			return p.SetError(c, sentinel)
		}, p); e != nil {
			return e
		}
		_, e := p.Get(tk)
		if !errors.Is(e, sentinel) {
			return fmt.Errorf("get returned %v, want sentinel", e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryGet(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, ok := p.TryGet(); ok {
			return errors.New("TryGet succeeded before set")
		}
		if e := p.Set(tk, 7); e != nil {
			return e
		}
		v, ok := p.TryGet()
		if !ok || v != 7 {
			return fmt.Errorf("TryGet = %d,%v want 7,true", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroValuePayloadIsDistinguishable(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if e := p.Set(tk, 0); e != nil {
			return e
		}
		if !p.Fulfilled() {
			return errors.New("promise with zero payload not Fulfilled")
		}
		v, ok := p.TryGet()
		if !ok || v != 0 {
			return fmt.Errorf("TryGet = %d,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPromisePayloadTypes(t *testing.T) {
	type pair struct{ A, B int }
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		ps := NewPromise[[]int](tk)
		pm := NewPromise[map[string]int](tk)
		pp := NewPromise[*pair](tk)
		pf := NewPromise[func() int](tk)
		ps.MustSet(tk, []int{1, 2, 3})
		pm.MustSet(tk, map[string]int{"x": 1})
		pp.MustSet(tk, &pair{1, 2})
		pf.MustSet(tk, func() int { return 9 })
		if v := ps.MustGet(tk); len(v) != 3 {
			return errors.New("slice payload")
		}
		if v := pm.MustGet(tk); v["x"] != 1 {
			return errors.New("map payload")
		}
		if v := pp.MustGet(tk); v.B != 2 {
			return errors.New("pointer payload")
		}
		if v := pf.MustGet(tk); v() != 9 {
			return errors.New("func payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetOnFulfilledPromiseFastPath(t *testing.T) {
	// A fulfilled promise must be gettable without any waits-for edge,
	// even while the task is inside another verification elsewhere.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		p.MustSet(tk, 5)
		for i := 0; i < 1000; i++ {
			if v := p.MustGet(tk); v != 5 {
				return fmt.Errorf("iteration %d: %d", i, v)
			}
		}
		if tk.waitingOn.Load() != nil {
			return errors.New("fast path left a waits-for edge")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoneChannelCloses(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		select {
		case <-p.Done():
			return errors.New("done closed before set")
		default:
		}
		p.MustSet(tk, 1)
		select {
		case <-p.Done():
			return nil
		case <-time.After(time.Second):
			return errors.New("done not closed after set")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMustGetPanicsBecomeTaskErrors(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		_, e := tk.Async(func(c *Task) error {
			q := NewPromise[int](c)
			q.MustSet(c, 1)
			q.MustSet(c, 2) // panics with DoubleSetError
			return nil
		})
		if e != nil {
			return e
		}
		return p.Set(tk, 0)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	var ds *DoubleSetError
	pv, ok := pe.Value.(error)
	if !ok || !errors.As(pv, &ds) {
		t.Fatalf("panic value = %v, want DoubleSetError", pe.Value)
	}
}

func TestPromiseLabels(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "result")
		q := NewPromise[int](tk)
		if p.Label() != "result" {
			return fmt.Errorf("label %q", p.Label())
		}
		if q.Label() == "" {
			return errors.New("default label empty")
		}
		if p.ID() == q.ID() {
			return errors.New("ids collide")
		}
		p.MustSet(tk, 0)
		q.MustSet(tk, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentGetSetStress(t *testing.T) {
	// Many producer/consumer pairs hammering promises concurrently; run
	// under -race this validates the happens-before edges of Set/Get.
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			const pairs = 64
			var sum atomic.Int64
			err := run(t, rt, func(tk *Task) error {
				var wg sync.WaitGroup
				for i := 0; i < pairs; i++ {
					p := NewPromiseNamed[int](tk, fmt.Sprintf("pair-%d", i))
					i := i
					if _, e := tk.Async(func(c *Task) error {
						return p.Set(c, i)
					}, p); e != nil {
						return e
					}
					wg.Add(1)
					if _, e := tk.Async(func(c *Task) error {
						defer wg.Done()
						v, e := p.Get(c)
						if e != nil {
							return e
						}
						sum.Add(int64(v))
						return nil
					}); e != nil {
						return e
					}
				}
				wg.Wait()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(pairs * (pairs - 1) / 2)
			if sum.Load() != want {
				t.Fatalf("sum = %d, want %d", sum.Load(), want)
			}
		})
	}
}

// TestPromiseIDsDistinctAcrossTasks: tasks creating promises at the
// same time, each from its own block of IDs, never hand out the same ID
// twice, and no promise gets the zero ID. Run it under -race: the ID
// blocks are task-confined and only their refill touches the runtime.
func TestPromiseIDsDistinctAcrossTasks(t *testing.T) {
	const tasks, perTask = 8, 3*promiseIDBlock + 5
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			ids := make([][]uint64, tasks)
			err := run(t, rt, func(tk *Task) error {
				var children []*Task
				for i := range ids {
					c, e := tk.Async(func(c *Task) error {
						for range perTask {
							p := NewPromise[int](c)
							ids[i] = append(ids[i], p.ID())
							if e := p.Set(c, 1); e != nil {
								return e
							}
						}
						return nil
					})
					if e != nil {
						return e
					}
					children = append(children, c)
				}
				for _, c := range children {
					if e := c.WaitFrom(tk); e != nil {
						return e
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[uint64]bool, tasks*perTask)
			for _, list := range ids {
				if len(list) != perTask {
					t.Fatalf("a task created %d promises, want %d", len(list), perTask)
				}
				for _, id := range list {
					if id == 0 || seen[id] {
						t.Fatalf("promise ID %d zero or handed out twice", id)
					}
					seen[id] = true
				}
			}
		})
	}
}
