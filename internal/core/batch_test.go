package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// TestAsyncBatchFanOut: a 64-wide batch behaves like 64 AsyncNamed calls
// in spec order — every child runs, every moved promise is fulfilled.
func TestAsyncBatchFanOut(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				const n = 64
				ps := make([]*Promise[int], n)
				specs := make([]SpawnSpec, n)
				for i := range specs {
					i := i
					ps[i] = NewPromise[int](tk)
					specs[i] = SpawnSpec{
						Name:  fmt.Sprintf("w%d", i),
						Body:  func(c *Task) error { return ps[i].Set(c, i) },
						Moved: []Movable{ps[i]},
					}
				}
				children, e := tk.AsyncBatch(specs)
				if e != nil {
					return e
				}
				if len(children) != n {
					return fmt.Errorf("returned %d children, want %d", len(children), n)
				}
				for i, p := range ps {
					v, e := p.Get(tk)
					if e != nil {
						return e
					}
					if v != i {
						return fmt.Errorf("child %d wrote %d", i, v)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncBatchEmpty: a zero-length batch is a no-op, not an error.
func TestAsyncBatchEmpty(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		children, e := tk.AsyncBatch(nil)
		if e != nil || children != nil {
			return fmt.Errorf("AsyncBatch(nil) = %v, %v; want nil, nil", children, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncBatchInvalidMoveStartsNothing: the batch-specific failure
// shape — ownership of every spec is validated before ANY child is
// created, so one bad move aborts the whole fan-out with zero bodies run
// (the per-spawn equivalent would have started the preceding children).
func TestAsyncBatchInvalidMoveStartsNothing(t *testing.T) {
	for _, mode := range []Mode{Ownership, Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			var ran atomic.Int32
			err := run(t, rt, func(tk *Task) error {
				good := NewPromiseNamed[int](tk, "good")
				stranger := NewPromiseNamed[int](tk, "stranger")
				// Move stranger away first so the last spec's move is invalid.
				if _, e := tk.AsyncNamed("keeper", func(c *Task) error {
					return stranger.Set(c, 0)
				}, stranger); e != nil {
					return e
				}
				children, e := tk.AsyncBatch([]SpawnSpec{
					{Name: "ok", Body: func(c *Task) error { ran.Add(1); return good.Set(c, 1) }, Moved: []Movable{good}},
					{Name: "bad", Body: func(c *Task) error { ran.Add(1); return nil }, Moved: []Movable{stranger}},
				})
				var ow *OwnershipError
				if !errors.As(e, &ow) || ow.Op != "move" {
					return fmt.Errorf("AsyncBatch = %v, want move OwnershipError", e)
				}
				if children != nil {
					return errors.New("failed batch returned children")
				}
				// Nothing started: main still owns good and must fulfil it.
				if se := good.Set(tk, 2); se != nil {
					return se
				}
				_, ge := stranger.Get(tk)
				return ge
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := ran.Load(); n != 0 {
				t.Fatalf("%d bodies ran, want 0", n)
			}
		})
	}
}

// TestAsyncBatchDuplicateMoveFirstWins: a promise listed by two specs
// belongs to the EARLIER spec's child; the later listing is skipped, like
// a duplicate within one spawn's moved set.
func TestAsyncBatchDuplicateMoveFirstWins(t *testing.T) {
	for _, mode := range []Mode{Ownership, Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "shared")
				q := NewPromiseNamed[int](tk, "own")
				if _, e := tk.AsyncBatch([]SpawnSpec{
					{Name: "first", Body: func(c *Task) error { return p.Set(c, 1) }, Moved: []Movable{p}},
					{Name: "second", Body: func(c *Task) error { return q.Set(c, 2) }, Moved: []Movable{p, q}},
				}); e != nil {
					return e
				}
				for _, pr := range []*Promise[int]{p, q} {
					if _, e := pr.Get(tk); e != nil {
						return e
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncBatchVectorizedSubmit: with WithBatchExecutor installed the
// whole fan-out reaches the executor as ONE multi-submit.
func TestAsyncBatchVectorizedSubmit(t *testing.T) {
	var mu sync.Mutex
	var batchSizes []int
	exec := func(j Job) { go j.Run() }
	execBatch := func(js []Job) {
		mu.Lock()
		batchSizes = append(batchSizes, len(js))
		mu.Unlock()
		for _, j := range js {
			go j.Run()
		}
	}
	rt := NewRuntime(WithMode(Full), WithExecutor(exec), WithBatchExecutor(execBatch))
	err := run(t, rt, func(tk *Task) error {
		const n = 16
		ps := make([]*Promise[int], n)
		specs := make([]SpawnSpec, n)
		for i := range specs {
			i := i
			ps[i] = NewPromise[int](tk)
			specs[i] = SpawnSpec{
				Body:  func(c *Task) error { return ps[i].Set(c, i) },
				Moved: []Movable{ps[i]},
			}
		}
		if _, e := tk.AsyncBatch(specs); e != nil {
			return e
		}
		for _, p := range ps {
			if _, e := p.Get(tk); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batchSizes) != 1 || batchSizes[0] != 16 {
		t.Fatalf("batch executor calls = %v, want one call of 16", batchSizes)
	}
}

// TestAsyncBatchTraceRoundTrip: a traced batch fan-out re-verifies clean,
// with one task-start per child attributed to the batching parent.
func TestAsyncBatchTraceRoundTrip(t *testing.T) {
	mem := trace.NewMemSink(0)
	rt := NewRuntime(WithMode(Full), TraceTo(mem))
	err := run(t, rt, func(tk *Task) error {
		const n = 8
		ps := make([]*Promise[int], n)
		specs := make([]SpawnSpec, n)
		for i := range specs {
			i := i
			ps[i] = NewPromise[int](tk)
			specs[i] = SpawnSpec{
				Name:  fmt.Sprintf("b%d", i),
				Body:  func(c *Task) error { return ps[i].Set(c, i) },
				Moved: []Movable{ps[i]},
			}
		}
		if _, e := tk.AsyncBatch(specs); e != nil {
			return e
		}
		for _, p := range ps {
			if _, e := p.Get(tk); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TraceClose(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Snapshot()
	rep := trace.Verify(evs)
	if !rep.Clean() {
		t.Fatalf("trace not clean: %s", rep.Summary())
	}
	starts := 0
	for _, e := range evs {
		if e.Kind == trace.KindTaskStart && len(e.TaskName) > 1 && e.TaskName[0] == 'b' {
			starts++
		}
	}
	if starts != 8 {
		t.Fatalf("batch task starts = %d, want 8", starts)
	}
}
