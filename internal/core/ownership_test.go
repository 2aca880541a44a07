package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestNewPromiseOwnedByCreator(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if p.Owner() != tk {
			return errors.New("creator does not own new promise")
		}
		return p.Set(tk, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipNotTrackedWhenUnverified(t *testing.T) {
	rt := NewRuntime(WithMode(Unverified))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if p.Owner() != nil {
			return errors.New("unverified mode tracked an owner")
		}
		// Any task may set in unverified mode, including non-creators with
		// no transfer.
		if _, e := tk.Async(func(c *Task) error { return p.Set(c, 1) }); e != nil {
			return e
		}
		_, e := p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetClearsOwner(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		p.MustSet(tk, 1)
		if p.Owner() != nil {
			return errors.New("owner not cleared by set")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncTransfersOwnership(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		child, e := tk.Async(func(c *Task) error {
			if p.Owner() != c {
				return errors.New("child does not own moved promise")
			}
			return p.Set(c, 1)
		}, p)
		if e != nil {
			return e
		}
		_ = child
		_, e = p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetByNonOwnerFails(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	var violation error
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		ch, e := tk.Async(func(c *Task) error {
			violation = p.Set(c, 99) // c does not own p
			return nil
		})
		if e != nil {
			return e
		}
		if e := ch.Wait(); e != nil {
			return e
		}
		return p.Set(tk, 1) // the real owner can still fulfil it
	})
	if err != nil {
		t.Fatal(err)
	}
	var oe *OwnershipError
	if !errors.As(violation, &oe) {
		t.Fatalf("non-owner set returned %v, want OwnershipError", violation)
	}
	if oe.Op != "set" {
		t.Fatalf("op = %q", oe.Op)
	}
}

func TestMoveNotOwnedPromiseFails(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		// Move p to child 1; then try to move it again to child 2.
		if _, e := tk.Async(func(c *Task) error { return p.Set(c, 1) }, p); e != nil {
			return e
		}
		_, e := tk.Async(func(c *Task) error { return nil }, p)
		var oe *OwnershipError
		if !errors.As(e, &oe) {
			return fmt.Errorf("second move returned %v, want OwnershipError", e)
		}
		if oe.Op != "move" {
			return fmt.Errorf("op = %q", oe.Op)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveFulfilledPromiseFails(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		p.MustSet(tk, 1)
		_, e := tk.Async(func(c *Task) error { return nil }, p)
		var oe *OwnershipError
		if !errors.As(e, &oe) {
			return fmt.Errorf("moving fulfilled promise returned %v, want OwnershipError", e)
		}
		if oe.OwnerID != 0 {
			return fmt.Errorf("owner id = %d, want 0 (fulfilled)", oe.OwnerID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailedMoveDoesNotStartChild(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	started := false
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		p.MustSet(tk, 1)
		child, e := tk.Async(func(c *Task) error { started = true; return nil }, p)
		if e == nil {
			return errors.New("move of fulfilled promise succeeded")
		}
		if child != nil {
			return errors.New("child returned despite failed move")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if started {
		t.Fatal("child ran despite rejected transfer")
	}
}

func TestOmittedSetDetectedWithBlame(t *testing.T) {
	// Listing 2 of the paper: t4 forgets to set s.
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		r := NewPromiseNamed[int](tk, "r")
		s := NewPromiseNamed[int](tk, "s")
		if _, e := tk.AsyncNamed("t3", func(t3 *Task) error {
			if _, e := t3.AsyncNamed("t4", func(t4 *Task) error {
				return nil // forgot to set s
			}, s); e != nil {
				return e
			}
			return r.Set(t3, 1)
		}, r, s); e != nil {
			return e
		}
		if _, e := r.Get(tk); e != nil {
			return e
		}
		_, e := s.Get(tk) // unblocked by the cascade, with an error
		var bp *BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("get(s) returned %v, want BrokenPromiseError", e)
		}
		if bp.TaskName() != "t4" {
			return fmt.Errorf("blame fell on %q, want t4", bp.TaskName())
		}
		if bp.PromiseLabel() != "s" {
			return fmt.Errorf("promise %q, want s", bp.PromiseLabel())
		}
		return nil
	})
	var om *OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("run error = %v, want to contain OmittedSetError", err)
	}
	if om.TaskName() != "t4" {
		t.Fatalf("omitted set blames %q, want t4", om.TaskName())
	}
	if len(om.Promises) != 1 || om.Promises[0].Label() != "s" {
		t.Fatalf("omitted promises = %v", om.Promises)
	}
}

func TestOmittedSetUndetectedWhenUnverified(t *testing.T) {
	// The same bug under the baseline: the consumer hangs forever, which is
	// exactly why the paper's policy exists.
	rt := NewRuntime(WithMode(Unverified))
	err := runDeadline(rt, 200*time.Millisecond, func(tk *Task) error {
		s := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error { return nil }, s); e != nil {
			return e
		}
		_, e := s.Get(tk) // blocks forever
		return e
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("baseline run = %v, want ErrTimeout hang", err)
	}
}

func TestOmittedSetOnPanicCascades(t *testing.T) {
	// A task that dies by panic still owes its promises; consumers must be
	// unblocked with the panic as the cause.
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "out")
		if _, e := tk.AsyncNamed("worker", func(c *Task) error {
			panic("worker exploded")
		}, p); e != nil {
			return e
		}
		_, e := p.Get(tk)
		var bp *BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("get returned %v, want BrokenPromiseError", e)
		}
		var pe *PanicError
		if !errors.As(bp.Cause, &pe) {
			return fmt.Errorf("cause = %v, want PanicError", bp.Cause)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run error %v does not contain the panic", err)
	}
}

func TestOmittedSetMultiplePromises(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		a := NewPromiseNamed[int](tk, "a")
		b := NewPromiseNamed[int](tk, "b")
		c := NewPromiseNamed[int](tk, "c")
		if _, e := tk.AsyncNamed("leaky", func(ch *Task) error {
			return b.Set(ch, 1) // fulfils b, leaks a and c
		}, a, b, c); e != nil {
			return e
		}
		if _, e := b.Get(tk); e != nil {
			return e
		}
		if _, e := a.Get(tk); e == nil {
			return errors.New("a delivered a value")
		}
		if _, e := c.Get(tk); e == nil {
			return errors.New("c delivered a value")
		}
		return nil
	})
	var om *OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("err = %v", err)
	}
	if len(om.Promises) != 2 {
		t.Fatalf("leaked %d promises, want 2", len(om.Promises))
	}
}

func TestOwnedCounterDetectsButCannotBlame(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership), WithOwnedTracking(TrackCounter))
	errCh := make(chan error, 1)
	err := rt.Run(func(tk *Task) error {
		s := NewPromiseNamed[int](tk, "s")
		if _, e := tk.AsyncNamed("t4", func(c *Task) error { return nil }, s); e != nil {
			return e
		}
		// No cascade is possible under TrackCounter, so do not block on s.
		go func() { _, e := s.Get(tk); errCh <- e }()
		return nil
	})
	var om *OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("counter mode missed the omitted set: %v", err)
	}
	if om.Count != 1 || om.Promises != nil {
		t.Fatalf("counter report = count %d promises %v", om.Count, om.Promises)
	}
	select {
	case e := <-errCh:
		t.Fatalf("consumer unblocked (%v); counter mode cannot cascade", e)
	default:
	}
}

func TestOwnedCounterCleanRunNoReport(t *testing.T) {
	rt := NewRuntime(WithMode(Full), WithOwnedTracking(TrackCounter))
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
}

func TestOwnedPromisesDiagnostic(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		a := NewPromiseNamed[int](tk, "a")
		b := NewPromiseNamed[int](tk, "b")
		if n := len(tk.OwnedPromises()); n != 2 {
			return fmt.Errorf("owned %d, want 2", n)
		}
		a.MustSet(tk, 1)
		if n := len(tk.OwnedPromises()); n != 1 {
			return fmt.Errorf("owned %d after set, want 1", n)
		}
		b.MustSet(tk, 1)
		if n := len(tk.OwnedPromises()); n != 0 {
			return fmt.Errorf("owned %d after both sets, want 0", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelegationChain(t *testing.T) {
	// Ownership hops through three generations before fulfilment.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "relay")
		if _, e := tk.AsyncNamed("gen1", func(c1 *Task) error {
			if _, e := c1.AsyncNamed("gen2", func(c2 *Task) error {
				if _, e := c2.AsyncNamed("gen3", func(c3 *Task) error {
					return p.Set(c3, 123)
				}, p); e != nil {
					return e
				}
				return nil
			}, p); e != nil {
				return e
			}
			return nil
		}, p); e != nil {
			return e
		}
		v, e := p.Get(tk)
		if e != nil {
			return e
		}
		if v != 123 {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFutureLikePattern(t *testing.T) {
	// The paper's note: new p; async(p){ ...; set p } reproduces a future.
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.Async(func(c *Task) error {
			return p.Set(c, 6*7)
		}, p); e != nil {
			return e
		}
		if v := p.MustGet(tk); v != 42 {
			return fmt.Errorf("future value %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupMovesAllMembers(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		a := NewPromise[int](tk)
		b := NewPromise[int](tk)
		g := Group{a, b}
		if n := len(g.Promises()); n != 2 {
			return fmt.Errorf("group has %d promises", n)
		}
		if _, e := tk.Async(func(c *Task) error {
			if a.Owner() != c || b.Owner() != c {
				return errors.New("group members not transferred")
			}
			a.MustSet(c, 1)
			b.MustSet(c, 2)
			return nil
		}, g); e != nil {
			return e
		}
		if a.MustGet(tk)+b.MustGet(tk) != 3 {
			return errors.New("bad values")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// classifyVerdict reduces a run error to a canonical, schedule-independent
// description of every policy/detector verdict it carries: deadlock cycles
// as sorted task->promise hops, ownership blame by task and promise name.
func classifyVerdict(err error) string {
	if err == nil {
		return "ok"
	}
	var parts []string
	var dl *DeadlockError
	if errors.As(err, &dl) {
		hops := make([]string, 0, len(dl.Cycle))
		for _, n := range dl.Cycle {
			hops = append(hops, n.TaskName()+"->"+n.PromiseLabel())
		}
		sort.Strings(hops)
		parts = append(parts, "deadlock{"+strings.Join(hops, ",")+"}")
	}
	var om *OmittedSetError
	if errors.As(err, &om) {
		labels := make([]string, 0, len(om.Promises))
		for _, p := range om.Promises {
			labels = append(labels, p.Label())
		}
		sort.Strings(labels)
		parts = append(parts, fmt.Sprintf("omitted{%s:%s}", om.TaskName(), strings.Join(labels, ",")))
	}
	var ds *DoubleSetError
	if errors.As(err, &ds) {
		parts = append(parts, fmt.Sprintf("double{%s:%s}", ds.TaskName, ds.PromiseLabel))
	}
	var ow *OwnershipError
	if errors.As(err, &ow) {
		parts = append(parts, fmt.Sprintf("ownership{%s %s:%s}", ow.Op, ow.TaskName, ow.PromiseLabel))
	}
	var bp *BrokenPromiseError
	if errors.As(err, &bp) {
		parts = append(parts, "broken{"+bp.PromiseLabel()+"}")
	}
	if len(parts) == 0 {
		return "error{" + err.Error() + "}"
	}
	sort.Strings(parts)
	return strings.Join(parts, "+")
}

// TestInlineDifferentialVerdicts pins the classified verdict of each
// verdict-bearing program shape under Ownership and under Full with both
// detectors: the policy checks must name the same task and promise
// whichever detector is configured, and the deadlock must be reported
// with its exact two-hop cycle. The name is kept from when the table
// also ran every program under inline spawning and compared the two
// verdicts; inline spawning is gone and the programs are scheduled-only.
func TestInlineDifferentialVerdicts(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"ownership", []Option{WithMode(Ownership)}},
		{"full-lockfree", []Option{WithMode(Full), WithDetector(DetectLockFree)}},
		{"full-globallock", []Option{WithMode(Full), WithDetector(DetectGlobalLock)}},
	}
	programs := []struct {
		name string
		want string
		prog TaskFunc
	}{
		{"clean-fanout", "ok", func(tk *Task) error {
			const n = 4
			ps := make([]*Promise[int], n)
			for i := range ps {
				ps[i] = NewPromiseNamed[int](tk, fmt.Sprintf("p%d", i))
			}
			for i := range ps {
				if _, e := tk.AsyncNamed(fmt.Sprintf("w%d", i), func(c *Task) error {
					return ps[i].Set(c, i)
				}, ps[i]); e != nil {
					return e
				}
			}
			for i, p := range ps {
				v, e := p.Get(tk)
				if e != nil {
					return e
				}
				if v != i {
					return fmt.Errorf("p%d = %d", i, v)
				}
			}
			return nil
		}},
		{"omitted-set", "broken{leaked}+omitted{leaker:leaked}", func(tk *Task) error {
			p := NewPromiseNamed[int](tk, "leaked")
			if _, e := tk.AsyncNamed("leaker", func(c *Task) error {
				return nil // takes ownership, never sets
			}, p); e != nil {
				return e
			}
			_, e := p.Get(tk)
			return e
		}},
		{"double-set", "double{setter:twice}", func(tk *Task) error {
			p := NewPromiseNamed[int](tk, "twice")
			if _, e := tk.AsyncNamed("setter", func(c *Task) error {
				if e := p.Set(c, 1); e != nil {
					return e
				}
				return p.Set(c, 2)
			}, p); e != nil {
				return e
			}
			_, e := p.Get(tk)
			return e
		}},
		{"set-without-ownership", "ownership{set thief:mine}", func(tk *Task) error {
			p := NewPromiseNamed[int](tk, "mine")
			done := NewPromiseNamed[int](tk, "done")
			if _, e := tk.AsyncNamed("thief", func(c *Task) error {
				se := p.Set(c, 99) // p was never moved to the child
				if e := done.Set(c, 1); e != nil {
					return e
				}
				return se
			}, done); e != nil {
				return e
			}
			// Join before the legitimate Set so the thief's verdict is
			// deterministically "set without ownership", never a racy
			// double-set against an already-fulfilled promise.
			if _, e := done.Get(tk); e != nil {
				return e
			}
			return p.Set(tk, 1)
		}},
		{"move-without-ownership", "ownership{move mover:stolen}", func(tk *Task) error {
			p := NewPromiseNamed[int](tk, "stolen")
			if _, e := tk.AsyncNamed("mover", func(c *Task) error {
				// The child tries to move a promise it does not own.
				_, e := c.AsyncNamed("inner", func(g *Task) error {
					return nil
				}, p)
				return e
			}); e != nil {
				return e
			}
			return p.Set(tk, 1)
		}},
		{"deadlock-cycle", "broken{q}+deadlock{a->p,main->q}+omitted{a:q}", func(tk *Task) error {
			p := NewPromiseNamed[int](tk, "p")
			q := NewPromiseNamed[int](tk, "q")
			if _, e := tk.AsyncNamed("a", func(c *Task) error {
				// Close the cycle only once main has passed its own
				// detector check and parked on q, so a is always the
				// task that alarms and the verdict does not depend on
				// the schedule.
				for q.s.wake.head.Load() == nil {
					runtime.Gosched()
				}
				v, e := p.Get(c)
				if e != nil {
					return e
				}
				return q.Set(c, v)
			}, q); e != nil {
				return e
			}
			_, e := q.Get(tk) // main awaits q; a awaits p; p owned by main
			if e == nil {
				return errors.New("cycle-closing Get returned nil")
			}
			_ = p.Set(tk, 1)
			return e
		}},
	}
	for _, tc := range programs {
		for _, cfg := range configs {
			if tc.name == "deadlock-cycle" && cfg.name == "ownership" {
				continue // the cycle hangs without a detector (Listing 1)
			}
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				if got := classifyVerdict(run(t, NewRuntime(cfg.opts...), tc.prog)); got != tc.want {
					t.Fatalf("verdict %s, want %s", got, tc.want)
				}
			})
		}
	}
}
