package core

// Tests of the owned-set representations (§6.2): exact list (default)
// and the counter.

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func trackingKinds() []OwnedTracking {
	return []OwnedTracking{TrackList, TrackCounter}
}

func TestExactListInterleavedSetAndMove(t *testing.T) {
	// Hammer the swap-delete bookkeeping: create many promises, discharge
	// them in adversarial orders (front, back, middle; by set and by
	// move), and verify the task ends clean.
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		const n = 40
		ps := make([]*Promise[int], n)
		for i := range ps {
			ps[i] = NewPromiseNamed[int](tk, fmt.Sprintf("x%d", i))
		}
		// Discharge in a scrambled order: evens by set (descending), odds
		// by move (ascending).
		for i := n - 2; i >= 0; i -= 2 {
			if e := ps[i].Set(tk, i); e != nil {
				return e
			}
		}
		for i := 1; i < n; i += 2 {
			if _, e := tk.Async(func(c *Task) error {
				return ps[i].Set(c, i)
			}, ps[i]); e != nil {
				return e
			}
		}
		if got := len(tk.OwnedPromises()); got != 0 {
			return fmt.Errorf("still owning %d promises after full discharge", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExactListNoGhostEntries(t *testing.T) {
	// After a set, the internal list must actually shrink (no pinning).
	rt := NewRuntime(WithMode(Ownership))
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 1000; i++ {
			p := NewPromise[int](tk)
			if e := p.Set(tk, i); e != nil {
				return e
			}
		}
		if n := len(tk.owned); n != 0 {
			return fmt.Errorf("exact list retains %d entries after discharge", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOmittedSetDetectedUnderEveryTracking(t *testing.T) {
	for _, kind := range trackingKinds() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			rt := NewRuntime(WithMode(Ownership), WithOwnedTracking(kind))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "owed")
				done := NewPromiseNamed[struct{}](tk, "done")
				if _, e := tk.AsyncNamed("debtor", func(c *Task) error {
					defer done.MustSet(c, struct{}{})
					return nil // leaks p
				}, p, done); e != nil {
					return e
				}
				_, e := done.Get(tk)
				return e
			})
			var om *OmittedSetError
			if !errors.As(err, &om) {
				t.Fatalf("tracking %v missed the omitted set: %v", kind, err)
			}
			if om.TaskName != "debtor" {
				t.Fatalf("blame = %q", om.TaskName)
			}
			if kind == TrackCounter {
				if om.Promises != nil || om.Count != 1 {
					t.Fatalf("counter report: %+v", om)
				}
			} else if len(om.Promises) != 1 || om.Promises[0].Label() != "owed" {
				t.Fatalf("list report: %+v", om)
			}
		})
	}
}

// Property: for random discharge orders mixing sets and moves, the exact
// list always ends empty and the runtime reports no errors — i.e. the
// back-index bookkeeping is permutation-proof.
func TestPropertyExactListPermutationProof(t *testing.T) {
	check := func(order []uint8) bool {
		rt := NewRuntime(WithMode(Full))
		err := rt.Run(func(tk *Task) error {
			n := len(order)
			if n == 0 {
				return nil
			}
			ps := make([]*Promise[int], n)
			for i := range ps {
				ps[i] = NewPromise[int](tk)
			}
			remaining := make([]int, n)
			for i := range remaining {
				remaining[i] = i
			}
			for k, sel := range order {
				idx := int(sel) % len(remaining)
				i := remaining[idx]
				remaining = append(remaining[:idx], remaining[idx+1:]...)
				if k%2 == 0 {
					if e := ps[i].Set(tk, i); e != nil {
						return e
					}
				} else {
					if _, e := tk.Async(func(c *Task) error {
						return ps[i].Set(c, i)
					}, ps[i]); e != nil {
						return e
					}
				}
			}
			if got := len(tk.OwnedPromises()); got != 0 {
				return fmt.Errorf("%d live obligations left", got)
			}
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: both tracking modes agree on clean completion for random
// programs (the generator exercises deep move chains).
func TestPropertyTrackingModesAgree(t *testing.T) {
	check := func(seed int64) bool {
		for _, kind := range trackingKinds() {
			rt := NewRuntime(WithMode(Full), WithOwnedTracking(kind))
			err := rt.Run(func(tk *Task) error {
				// Small in-package dataflow: chain of moves + sets.
				p := NewPromise[int](tk)
				q := NewPromise[int](tk)
				if _, e := tk.Async(func(c1 *Task) error {
					if _, e := c1.Async(func(c2 *Task) error {
						return p.Set(c2, int(seed))
					}, p); e != nil {
						return e
					}
					v, e := p.Get(c1)
					if e != nil {
						return e
					}
					return q.Set(c1, v+1)
				}, p, q); e != nil {
					return e
				}
				v, e := q.Get(tk)
				if e != nil {
					return e
				}
				if v != int(seed)+1 {
					return fmt.Errorf("v = %d", v)
				}
				return nil
			})
			if err != nil {
				t.Logf("kind %v: %v", kind, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
