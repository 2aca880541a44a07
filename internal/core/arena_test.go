package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestArenaSetGet: arena promises behave exactly like NewPromise's under
// every mode — set, get, recycle across several slab boundaries.
func TestArenaSetGet(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				arena := NewPromiseArena[int](tk)
				for i := 0; i < 3*arenaBlock+5; i++ {
					p := arena.New(tk)
					if e := p.Set(tk, i); e != nil {
						return e
					}
					v, e := p.Get(tk)
					if e != nil {
						return e
					}
					if v != i {
						return fmt.Errorf("iteration %d read %d", i, v)
					}
					arena.Recycle(p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestArenaRecycleReuses: in Unverified mode a recycled fulfilled promise
// is handed back by the next New — same object, scrubbed and re-inited.
func TestArenaRecycleReuses(t *testing.T) {
	rt := NewRuntime(WithMode(Unverified))
	err := run(t, rt, func(tk *Task) error {
		arena := NewPromiseArena[int](tk)
		p := arena.New(tk)
		if e := p.Set(tk, 1); e != nil {
			return e
		}
		if !arena.Recycle(p) {
			return errors.New("Recycle of a fulfilled promise refused in Unverified mode")
		}
		q := arena.New(tk)
		if q != p {
			return errors.New("New after Recycle did not reuse the recycled promise")
		}
		if e := q.Set(tk, 2); e != nil {
			return e
		}
		v, e := q.Get(tk)
		if e != nil {
			return e
		}
		if v != 2 {
			return fmt.Errorf("reused promise read %d, want 2", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArenaRecycleRefusedWhenVerified: under the verified modes a
// fulfilled promise must stay fulfilled-and-ownerless forever (the
// detector's stale-read argument), so Recycle refuses and the promise
// simply stays on its slab.
func TestArenaRecycleRefusedWhenVerified(t *testing.T) {
	for _, mode := range []Mode{Ownership, Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				arena := NewPromiseArena[int](tk)
				p := arena.New(tk)
				if e := p.Set(tk, 1); e != nil {
					return e
				}
				if arena.Recycle(p) {
					return errors.New("Recycle accepted a promise under a verified mode")
				}
				q := arena.New(tk)
				if q == p {
					return errors.New("refused promise was reused anyway")
				}
				return q.Set(tk, 2)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestArenaRecycleRefusedUnfulfilled: an unfulfilled promise is live
// state in every mode; recycling it would corrupt a pending waiter. So is
// a promise a reader already sees fulfilled whose setter has not yet
// signalled its wake gate: reuse would race the setter's signal.
func TestArenaRecycleRefusedUnfulfilled(t *testing.T) {
	rt := NewRuntime(WithMode(Unverified))
	err := run(t, rt, func(tk *Task) error {
		arena := NewPromiseArena[int](tk)
		p := arena.New(tk)
		if arena.Recycle(p) {
			return errors.New("Recycle accepted an unfulfilled promise")
		}
		if err := p.Set(tk, 1); err != nil {
			return err
		}
		q := arena.New(tk)
		q.s.claim()
		q.s.state.Store(stateFulfilled) // publish stopped before its signal
		if arena.Recycle(q) {
			return errors.New("Recycle accepted a promise its setter has not finished publishing")
		}
		q.s.wake.signal()
		if !arena.Recycle(q) {
			return errors.New("Recycle refused a fully published promise")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArenaCrossRuntimePanics: an arena is bound to its runtime; using it
// from a task of another runtime is a programming error caught loudly.
func TestArenaCrossRuntimePanics(t *testing.T) {
	var arena *PromiseArena[int]
	rt1 := NewRuntime(WithMode(Unverified))
	if err := run(t, rt1, func(tk *Task) error {
		arena = NewPromiseArena[int](tk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rt2 := NewRuntime(WithMode(Unverified))
	err := run(t, rt2, func(tk *Task) error {
		defer func() {
			if recover() == nil {
				t.Error("cross-runtime arena New did not panic")
			}
		}()
		arena.New(tk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArenaPromisesPolicyChecked: arena promises carry the full policy —
// a child that takes one and terminates without setting it is blamed by
// name exactly like a heap promise (they share initPromise).
func TestArenaPromisesPolicyChecked(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		arena := NewPromiseArena[int](tk)
		p := arena.New(tk)
		if _, e := tk.AsyncNamed("leaker", func(c *Task) error {
			return nil // owns p, never sets it
		}, p); e != nil {
			return e
		}
		_, e := p.Get(tk)
		var bp *BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("Get on leaked arena promise = %v, want BrokenPromiseError", e)
		}
		return nil
	})
	var om *OmittedSetError
	if !errors.As(err, &om) || om.TaskName != "leaker" {
		t.Fatalf("run err = %v, want OmittedSetError blaming leaker", err)
	}
}
