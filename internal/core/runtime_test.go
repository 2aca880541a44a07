package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestRunReturnsNilOnCleanProgram(t *testing.T) {
	rt := NewRuntime()
	if err := run(t, rt, func(tk *Task) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunCollectsTaskErrors(t *testing.T) {
	rt := NewRuntime()
	sentinel := errors.New("boom")
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 3; i++ {
			if _, e := tk.Async(func(c *Task) error { return sentinel }); e != nil {
				return e
			}
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := len(rt.Errors()); n != 3 {
		t.Fatalf("recorded %d errors, want 3", n)
	}
}

func TestRunWaitsForAllDescendants(t *testing.T) {
	rt := NewRuntime()
	var leaves atomic.Int32
	err := run(t, rt, func(tk *Task) error {
		var spawn func(t *Task, depth int) error
		spawn = func(t *Task, depth int) error {
			if depth == 0 {
				time.Sleep(time.Millisecond)
				leaves.Add(1)
				return nil
			}
			for i := 0; i < 2; i++ {
				if _, e := t.Async(func(c *Task) error { return spawn(c, depth-1) }); e != nil {
					return e
				}
			}
			return nil
		}
		return spawn(tk, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves.Load() != 32 {
		t.Fatalf("leaves = %d, want 32 (Run returned before descendants finished)", leaves.Load())
	}
}

func TestTaskCountStat(t *testing.T) {
	rt := NewRuntime()
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 9; i++ {
			if _, e := tk.Async(func(c *Task) error { return nil }); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Tasks; got != 10 { // 9 + root
		t.Fatalf("tasks = %d, want 10", got)
	}
}

func TestEventCounting(t *testing.T) {
	rt := NewRuntime(WithEventCounting(true))
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 5; i++ {
			p := NewPromise[int](tk)
			p.MustSet(tk, i)
			p.MustGet(tk)
			p.MustGet(tk)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Sets != 5 || st.Gets != 10 {
		t.Fatalf("stats = %+v, want 5 sets / 10 gets", st)
	}
}

func TestEventCountingOffByDefault(t *testing.T) {
	rt := NewRuntime()
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		p.MustSet(tk, 1)
		p.MustGet(tk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Gets != 0 || st.Sets != 0 {
		t.Fatalf("counters ran while disabled: %+v", st)
	}
}

func TestAlarmHandlerFiresBeforePropagation(t *testing.T) {
	var fired atomic.Bool
	rt := NewRuntime(WithAlarmHandler(func(err error) { fired.Store(true) }))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		_, e := p.Get(tk) // self-deadlock
		if !fired.Load() {
			return errors.New("alarm handler had not fired when Get returned")
		}
		if e == nil {
			return errors.New("no deadlock error")
		}
		return p.Set(tk, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDeadlineCompletesNormally(t *testing.T) {
	rt := NewRuntime()
	err := runDeadline(rt, 5*time.Second, func(tk *Task) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDeadlineReportsHang(t *testing.T) {
	rt := NewRuntime(WithMode(Unverified))
	err := runDeadline(rt, 100*time.Millisecond, func(tk *Task) error {
		p := NewPromise[int](tk)
		_, e := p.Get(tk) // nobody will ever set this
		return e
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestWithExecutor(t *testing.T) {
	var dispatched atomic.Int32
	rt := NewRuntime(WithExecutor(funcExecutor(func(j Job) {
		dispatched.Add(1)
		go j.Run()
	})))
	err := run(t, rt, func(tk *Task) error {
		// The root body runs on Run's own goroutine (the paper's Init),
		// so it starts before the executor has seen a single job.
		if n := dispatched.Load(); n != 0 {
			return fmt.Errorf("root body started after %d executor dispatches, want 0", n)
		}
		for i := 0; i < 4; i++ {
			if _, e := tk.Async(func(c *Task) error { return nil }); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the four children pass through the executor.
	if dispatched.Load() != 4 {
		t.Fatalf("executor dispatched %d tasks, want 4", dispatched.Load())
	}
	if n := rt.Stats().Tasks; n != 5 {
		t.Fatalf("runtime counted %d tasks, want 5 (root included)", n)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{Unverified: "unverified", Ownership: "ownership", Full: "full", Mode(9): "unknown"}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestTaskIdentity(t *testing.T) {
	rt := NewRuntime()
	err := run(t, rt, func(tk *Task) error {
		if tk.Name() != "main" || tk.Parent() != nil {
			return fmt.Errorf("root = %q parent %v", tk.Name(), tk.Parent())
		}
		child, e := tk.AsyncNamed("worker", func(c *Task) error {
			if c.Name() != "worker" {
				return fmt.Errorf("name %q", c.Name())
			}
			if c.Parent() == nil || c.Parent().Name() != "main" {
				return errors.New("bad parent")
			}
			if c.Runtime() != rt {
				return errors.New("bad runtime")
			}
			return nil
		})
		if e != nil {
			return e
		}
		return child.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTaskWaitReturnsError: a task handle stays valid after its task
// ends, whichever spawn path created it. Each body fulfils its join
// promise and then fails with its own sentinel. Once the join is observed
// fulfilled — and more tasks have been spawned and finished since, so a
// runtime that recycled handles would have handed this one out again —
// Wait must return that body's sentinel, and ID and Name must be the ones
// the handle had at spawn.
func TestTaskWaitReturnsError(t *testing.T) {
	type child struct {
		name     string
		join     *Promise[int]
		sentinel error
		task     *Task
		id       uint64
	}
	newChild := func(tk *Task, name string) *child {
		return &child{name: name, join: NewPromise[int](tk), sentinel: errors.New(name + " failed")}
	}
	body := func(k *child) TaskFunc {
		return func(c *Task) error {
			if err := k.join.Set(c, 1); err != nil {
				return err
			}
			return k.sentinel
		}
	}
	cases := []struct {
		name  string
		spawn func(tk *Task) ([]*child, error)
	}{
		{"async", func(tk *Task) ([]*child, error) {
			k := newChild(tk, "async-child")
			var err error
			k.task, err = tk.AsyncNamed(k.name, body(k), k.join)
			return []*child{k}, err
		}},
		{"batch", func(tk *Task) ([]*child, error) {
			var kids []*child
			var specs []SpawnSpec
			for i := 0; i < 3; i++ {
				k := newChild(tk, fmt.Sprintf("batch-child-%d", i))
				kids = append(kids, k)
				specs = append(specs, SpawnSpec{Name: k.name, Body: body(k), Moved: []Movable{k.join}})
			}
			ts, err := tk.AsyncBatch(specs)
			for i := range ts {
				kids[i].task = ts[i]
			}
			return kids, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var kids []*child
			err := run(t, NewRuntime(), func(tk *Task) error {
				var e error
				if kids, e = tc.spawn(tk); e != nil {
					return e
				}
				for _, k := range kids {
					k.id = k.task.ID()
					if _, e := k.join.Get(tk); e != nil {
						return e
					}
				}
				for i := 0; i < 8; i++ {
					p := NewPromise[int](tk)
					if _, e := tk.Async(func(c *Task) error { return p.Set(c, i) }, p); e != nil {
						return e
					}
					if _, e := p.Get(tk); e != nil {
						return e
					}
				}
				for _, k := range kids {
					if w := k.task.Wait(); !errors.Is(w, k.sentinel) {
						return fmt.Errorf("%s: Wait = %v, want %v", k.name, w, k.sentinel)
					}
					if k.task.ID() != k.id || k.task.Name() != k.name {
						return fmt.Errorf("%s: handle became %d %q after its task ended, was %d",
							k.name, k.task.ID(), k.task.Name(), k.id)
					}
				}
				return nil // swallow: the runtime still records them
			})
			for _, k := range kids {
				if !errors.Is(err, k.sentinel) {
					t.Fatalf("runtime did not record %v: %v", k.sentinel, err)
				}
			}
		})
	}
}

func TestErrorStringsAreDescriptive(t *testing.T) {
	oe := &OwnershipError{Op: "set", TaskName: "t1", PromiseLabel: "p", OwnerID: 2, OwnerName: "t2"}
	if !strings.Contains(oe.Error(), "t1") || !strings.Contains(oe.Error(), "t2") {
		t.Fatalf("ownership error: %s", oe)
	}
	oe2 := &OwnershipError{Op: "move", TaskName: "t1", PromiseLabel: "p"}
	if !strings.Contains(oe2.Error(), "fulfilled") {
		t.Fatalf("fulfilled owner not described: %s", oe2)
	}
	ds := &DoubleSetError{TaskName: "t", PromiseLabel: "p"}
	if !strings.Contains(ds.Error(), "already fulfilled") {
		t.Fatalf("double set: %s", ds)
	}
	om := &OmittedSetError{TaskName: "t4", Count: 2}
	if !strings.Contains(om.Error(), "t4") || !strings.Contains(om.Error(), "2") {
		t.Fatalf("omitted set (counter): %s", om)
	}
	pe := &PanicError{TaskName: "w", Value: "bang"}
	if !strings.Contains(pe.Error(), "bang") {
		t.Fatalf("panic: %s", pe)
	}
	bp := &BrokenPromiseError{PromiseLabel: "s", TaskName: "t4", Cause: errors.New("x")}
	if !strings.Contains(bp.Error(), "s") || bp.Unwrap() == nil {
		t.Fatalf("broken promise: %s", bp)
	}
}

// TestTaskSizeClass pins Task inside the runtime's 160-byte size class:
// every spawn allocates one, so a field that pushes it past 160 bytes
// costs every task the next class (176) whether it uses the field or not.
func TestTaskSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n > 160 {
		t.Fatalf("Task is %d bytes, want at most 160", n)
	}
}

// TestRunLeavesNoGoroutines pins "a finished runtime holds no
// goroutines": after Run of a wide spawn-and-join fan, half of whose
// joins block, and after a RunContext cancelled while those joins are
// parked, the goroutine count settles back to its pre-run value.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const width = 64
	// fan spawns width children; child i moves a promise to a grandchild
	// and joins on it, and the even grandchildren first wait on gate.
	// Root calls parked once those waits are parked, then joins every
	// child through a moved result promise.
	fan := func(root *Task, parked func(root *Task, gate *Promise[int]) error) error {
		gate := NewPromiseNamed[int](root, "gate")
		var blocked atomic.Int32
		results := make([]*Promise[int], width)
		for i := range results {
			res := NewPromise[int](root)
			results[i] = res
			if _, err := root.Async(func(c *Task) error {
				p := NewPromise[int](c)
				if _, err := c.Async(func(g *Task) error {
					if i%2 == 0 {
						blocked.Add(1)
						if _, err := gate.Get(g); err != nil {
							return err
						}
					}
					return p.Set(g, i)
				}, p); err != nil {
					return err
				}
				v, err := p.Get(c)
				if err != nil {
					return err
				}
				return res.Set(c, v)
			}, res); err != nil {
				return err
			}
		}
		for blocked.Load() < width/2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Millisecond)
		if err := parked(root, gate); err != nil {
			return err
		}
		for _, res := range results {
			if _, err := res.Get(root); err != nil {
				return err
			}
		}
		return nil
	}
	settle := func(t *testing.T, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > want {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left after the run, %d before it", runtime.NumGoroutine(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt := NewRuntime(WithMode(mode))
			release := func(root *Task, gate *Promise[int]) error { return gate.Set(root, 1) }
			if err := run(t, rt, func(root *Task) error { return fan(root, release) }); err != nil {
				t.Fatal(err)
			}
			settle(t, before)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rt = NewRuntime(WithMode(mode))
			done := make(chan error, 1)
			abort := func(*Task, *Promise[int]) error { cancel(); return nil }
			go func() { done <- rt.RunContext(ctx, func(root *Task) error { return fan(root, abort) }) }()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("RunContext = %v, want context.Canceled in the chain", err)
				}
			case <-time.After(testTimeout):
				t.Fatal("canceled run did not unwind")
			}
			settle(t, before)
		})
	}
}
