package collections

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

// TestBarrierLockstep checks that no party can pass round r before every
// party has arrived at round r.
func TestBarrierLockstep(t *testing.T) {
	const parties, rounds = 8, 10
	var b *Barrier
	rt := core.NewRuntime(core.WithMode(core.Full))
	arrived := make([]atomic.Int32, rounds)
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		b = NewBarrier(tk, parties, rounds)
		return RunFinish(tk, func(fs *Finish) error {
			for p := 0; p < parties; p++ {
				p := p
				if _, err := fs.Async(tk, func(c *core.Task) error {
					for r := 0; r < rounds; r++ {
						arrived[r].Add(1)
						if err := b.Await(c, p, r); err != nil {
							return err
						}
						if n := arrived[r].Load(); int(n) != parties {
							return fmt.Errorf("party %d passed round %d with %d/%d", p, r, n, parties)
						}
					}
					return nil
				}, b.Column(p)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if b.Parties() != parties || b.Rounds() != rounds {
		t.Fatal("accessors")
	}
}

func TestAllToOneLockstep(t *testing.T) {
	const parties, rounds = 8, 10
	rt := core.NewRuntime(core.WithMode(core.Full))
	arrived := make([]atomic.Int32, rounds)
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		a := NewAllToOne(tk, parties, rounds)
		return RunFinish(tk, func(fs *Finish) error {
			for p := 0; p < parties; p++ {
				p := p
				if _, err := fs.Async(tk, func(c *core.Task) error {
					for r := 0; r < rounds; r++ {
						arrived[r].Add(1)
						if err := a.Await(c, p, r); err != nil {
							return err
						}
						if n := arrived[r].Load(); int(n) != parties {
							return fmt.Errorf("party %d passed round %d with %d/%d", p, r, n, parties)
						}
					}
					return nil
				}, a.Column(p)); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func TestAllToOneLeaderColumn(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Ownership))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		a := NewAllToOne(tk, 4, 3)
		if a.Leader() != 0 || a.Parties() != 4 {
			return errors.New("accessors")
		}
		// Leader column carries the release promises (one per round);
		// others carry their arrivals.
		if n := len(a.Column(0).Promises()); n != 3 {
			return fmt.Errorf("leader column has %d promises, want 3", n)
		}
		if n := len(a.Column(1).Promises()); n != 3 {
			return fmt.Errorf("party column has %d promises, want 3", n)
		}
		// Clean up ownership by running the protocol once per round with
		// all parties inline is impossible from one task; instead complete
		// the promises directly.
		for _, ap := range a.Column(0).Promises() {
			rp := ap.(*core.Promise[struct{}])
			rp.MustSet(tk, struct{}{})
		}
		for p := 1; p < 4; p++ {
			for _, ap := range a.Column(p).Promises() {
				ap.(*core.Promise[struct{}]).MustSet(tk, struct{}{})
			}
		}
		return nil
	})
}

func TestBarrierAbandonedPartyBreaksOthersOut(t *testing.T) {
	// One party dies before arriving: its arrival promises are completed
	// exceptionally, and every other party unblocks with an error instead
	// of hanging.
	rt := core.NewRuntime(core.WithMode(core.Full))
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		const parties = 4
		b := NewBarrier(tk, parties, 1)
		for p := 0; p < parties; p++ {
			p := p
			if _, err := tk.AsyncNamed(fmt.Sprintf("party-%d", p), func(c *core.Task) error {
				if p == 0 {
					return errors.New("party 0 dies before the barrier")
				}
				return b.Await(c, p, 0)
			}, b.Column(p)); err != nil {
				return err
			}
		}
		return nil
	})
	var bp *core.BrokenPromiseError
	if !errors.As(err, &bp) {
		t.Fatalf("no broken-promise cascade: %v", err)
	}
	var om *core.OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("no omitted-set report: %v", err)
	}
	if om.TaskName() != "party-0" {
		t.Fatalf("blame = %q", om.TaskName())
	}
}

func TestRendezvousExchange(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		rdv := NewRendezvous[int](tk)
		got := core.NewPromise[int](tk)
		if _, err := tk.AsyncNamed("offerer", func(c *core.Task) error {
			return rdv.Offer(c, 99)
		}, rdv.OfferEnd()); err != nil {
			return err
		}
		if _, err := tk.AsyncNamed("taker", func(c *core.Task) error {
			v, err := rdv.Take(c)
			if err != nil {
				return err
			}
			return got.Set(c, v)
		}, rdv.TakeEnd(), got); err != nil {
			return err
		}
		if v := got.MustGet(tk); v != 99 {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
}

func TestRendezvousOffererBlocksUntilTake(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	var taken atomic.Bool
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		rdv := NewRendezvous[string](tk)
		offDone := core.NewPromise[struct{}](tk)
		if _, err := tk.Async(func(c *core.Task) error {
			if err := rdv.Offer(c, "x"); err != nil {
				return err
			}
			if !taken.Load() {
				return errors.New("offer returned before take")
			}
			return offDone.Set(c, struct{}{})
		}, rdv.OfferEnd(), offDone); err != nil {
			return err
		}
		if _, err := tk.Async(func(c *core.Task) error {
			taken.Store(true)
			_, err := rdv.Take(c)
			return err
		}, rdv.TakeEnd()); err != nil {
			return err
		}
		_, err := offDone.Get(tk)
		return err
	})
}

func TestRendezvousAbandonedTakerDetected(t *testing.T) {
	// The taker dies without taking: the offerer is unblocked by the
	// cascade instead of waiting forever on the ack.
	rt := core.NewRuntime(core.WithMode(core.Full))
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		rdv := NewRendezvous[int](tk)
		if _, err := tk.AsyncNamed("offerer", func(c *core.Task) error {
			return rdv.Offer(c, 1)
		}, rdv.OfferEnd()); err != nil {
			return err
		}
		_, err := tk.AsyncNamed("taker", func(c *core.Task) error {
			return nil // never takes
		}, rdv.TakeEnd())
		return err
	})
	var om *core.OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("no omitted set: %v", err)
	}
}
