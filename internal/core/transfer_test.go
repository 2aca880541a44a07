package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestDuplicateMoveInOneSpawn: listing the same promise twice in a single
// Async (directly or via overlapping collections) must transfer it once,
// with exact obligation accounting.
func TestDuplicateMoveInOneSpawn(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "dup")
		if _, e := tk.Async(func(c *Task) error {
			if p.Owner() != c {
				return errors.New("not transferred")
			}
			return p.Set(c, 1)
		}, p, p, Group{p}); e != nil {
			return e
		}
		v, e := p.Get(tk)
		if e != nil {
			return e
		}
		if v != 1 {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("duplicate move broke accounting: %v", err)
	}
}

// TestDuplicateMoveThenLeak: the duplicate must also not double-report
// when the promise IS leaked.
func TestDuplicateMoveThenLeak(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "dup-leak")
		if _, e := tk.AsyncNamed("leaky", func(c *Task) error { return nil }, p, p); e != nil {
			return e
		}
		_, e := p.Get(tk)
		var bp *BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("get = %v", e)
		}
		return nil
	})
	var om *OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("err = %v", err)
	}
	if len(om.Promises) != 1 {
		t.Fatalf("leaked %d entries, want exactly 1 (no duplicate blame)", len(om.Promises))
	}
}

// TestMoveChainDepth: ownership through a deep linear chain of spawns
// keeps exact accounting (regression guard for back-index hand-off).
func TestMoveChainDepth(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "deep")
		const depth = 50
		var spawn func(t *Task, d int) error
		spawn = func(t *Task, d int) error {
			if d == 0 {
				return p.Set(t, depth)
			}
			_, e := t.Async(func(c *Task) error { return spawn(c, d-1) }, p)
			return e
		}
		if _, e := tk.Async(func(c *Task) error { return spawn(c, depth) }, p); e != nil {
			return e
		}
		v, e := p.Get(tk)
		if e != nil {
			return e
		}
		if v != depth {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedOwnAndForeignDischarge: a task discharging its own
// promises while promises it moved away are discharged elsewhere — the
// back-indexes of the two lists must not interfere.
func TestInterleavedOwnAndForeignDischarge(t *testing.T) {
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		mine := make([]*Promise[int], 10)
		theirs := make([]*Promise[int], 10)
		for i := range mine {
			mine[i] = NewPromiseNamed[int](tk, fmt.Sprintf("mine-%d", i))
			theirs[i] = NewPromiseNamed[int](tk, fmt.Sprintf("theirs-%d", i))
		}
		var movables []Movable
		for _, p := range theirs {
			movables = append(movables, p)
		}
		if _, e := tk.Async(func(c *Task) error {
			for i, p := range theirs {
				if e := p.Set(c, i); e != nil {
					return e
				}
			}
			return nil
		}, movables...); e != nil {
			return e
		}
		for i, p := range mine {
			if e := p.Set(tk, i); e != nil {
				return e
			}
		}
		for _, p := range theirs {
			if _, e := p.Get(tk); e != nil {
				return e
			}
		}
		if n := len(tk.OwnedPromises()); n != 0 {
			return fmt.Errorf("%d obligations left", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
