package collections

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestChannelListing4(t *testing.T) {
	// The exact program of Listing 4: send 1, move the whole channel to a
	// child which sends 2 and stops, then receive 1 and 2.
	for _, mode := range testutil.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := core.NewRuntime(core.WithMode(mode))
			testutil.MustSucceed(t, rt, func(tk *core.Task) error {
				ch := NewChannel[int](tk)
				if err := ch.Send(tk, 1); err != nil {
					return err
				}
				if _, err := tk.Async(func(c *core.Task) error {
					if err := ch.Send(c, 2); err != nil {
						return err
					}
					return ch.Close(c)
					// No remaining promises.
				}, ch); err != nil {
					return err
				}
				// No remaining promises in the parent either.
				if v, ok, err := ch.Recv(tk); err != nil || !ok || v != 1 {
					return fmt.Errorf("first recv = %v %v %v", v, ok, err)
				}
				if v, ok, err := ch.Recv(tk); err != nil || !ok || v != 2 {
					return fmt.Errorf("second recv = %v %v %v", v, ok, err)
				}
				if _, ok, err := ch.Recv(tk); err != nil || ok {
					return fmt.Errorf("recv after close: ok=%v err=%v", ok, err)
				}
				return nil
			})
		})
	}
}

func TestChannelOrdering(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	const n = 500
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		ch := NewChannel[int](tk)
		if _, err := tk.Async(func(c *core.Task) error {
			for i := 0; i < n; i++ {
				if err := ch.Send(c, i); err != nil {
					return err
				}
			}
			return ch.Close(c)
		}, ch); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v, ok, err := ch.Recv(tk)
			if err != nil || !ok || v != i {
				return fmt.Errorf("recv %d = %v %v %v", i, v, ok, err)
			}
		}
		if _, ok, _ := ch.Recv(tk); ok {
			return errors.New("stream did not end")
		}
		return nil
	})
}

func TestChannelRecvBlocksUntilSend(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		ch := NewChannel[string](tk)
		got := core.NewPromise[string](tk)
		if _, err := tk.Async(func(c *core.Task) error {
			v, ok, err := ch.Recv(c)
			if err != nil || !ok {
				return fmt.Errorf("recv: %v %v", ok, err)
			}
			return got.Set(c, v)
		}, got); err != nil {
			return err
		}
		if err := ch.Send(tk, "ping"); err != nil {
			return err
		}
		v, err := got.Get(tk)
		if err != nil {
			return err
		}
		if v != "ping" {
			return fmt.Errorf("v = %q", v)
		}
		return ch.Close(tk)
	})
}

func TestChannelSendByNonOwnerFails(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Ownership))
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		ch := NewChannel[int](tk)
		// Move the sending end away; the parent then tries to send.
		if _, err := tk.Async(func(c *core.Task) error {
			return ch.Close(c)
		}, ch); err != nil {
			return err
		}
		e := ch.Send(tk, 1)
		var oe *core.OwnershipError
		if !errors.As(e, &oe) {
			return fmt.Errorf("send by non-owner = %v, want OwnershipError", e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChannelAbandonedSenderIsOmittedSet(t *testing.T) {
	// A task holding the sending end that terminates without Close leaks
	// the producer promise; the receiver is unblocked by the cascade.
	rt := core.NewRuntime(core.WithMode(core.Ownership))
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		ch := NewChannel[int](tk)
		if _, err := tk.AsyncNamed("sender", func(c *core.Task) error {
			return nil // forgot to Close (or Send)
		}, ch); err != nil {
			return err
		}
		_, _, e := ch.Recv(tk)
		var bp *core.BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("recv = %v, want BrokenPromiseError", e)
		}
		if bp.TaskName() != "sender" {
			return fmt.Errorf("blame = %q", bp.TaskName())
		}
		return nil
	})
	var om *core.OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("no omitted-set report: %v", err)
	}
}

func TestChannelMovesThroughGenerations(t *testing.T) {
	// The sending end hops through a chain of tasks, each contributing one
	// value — the PromiseCollection abstraction at work.
	rt := core.NewRuntime(core.WithMode(core.Full))
	const hops = 10
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		ch := NewChannel[int](tk)
		var spawn func(t *core.Task, i int) error
		spawn = func(t *core.Task, i int) error {
			if i == hops {
				return ch.Close(t)
			}
			if err := ch.Send(t, i); err != nil {
				return err
			}
			_, err := t.Async(func(c *core.Task) error { return spawn(c, i+1) }, ch)
			return err
		}
		if _, err := tk.Async(func(c *core.Task) error { return spawn(c, 0) }, ch); err != nil {
			return err
		}
		for i := 0; i < hops; i++ {
			v, ok, err := ch.Recv(tk)
			if err != nil || !ok || v != i {
				return fmt.Errorf("recv %d = %v %v %v", i, v, ok, err)
			}
		}
		_, ok, err := ch.Recv(tk)
		if err != nil || ok {
			return fmt.Errorf("tail: ok=%v err=%v", ok, err)
		}
		return nil
	})
}

func TestChannelDeadlockDetected(t *testing.T) {
	// Two tasks each Recv from the channel the other must Send on: the
	// detector sees through the channel abstraction because channels are
	// just promises.
	rt := core.NewRuntime(core.WithMode(core.Full))
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		ab := NewChannelNamed[int](tk, "ab")
		ba := NewChannelNamed[int](tk, "ba")
		if _, err := tk.AsyncNamed("A", func(a *core.Task) error {
			if _, _, err := ba.Recv(a); err != nil {
				return err
			}
			return ab.Send(a, 1)
		}, ab); err != nil {
			return err
		}
		if _, err := tk.AsyncNamed("B", func(b *core.Task) error {
			if _, _, err := ab.Recv(b); err != nil {
				return err
			}
			return ba.Send(b, 1)
		}, ba); err != nil {
			return err
		}
		return nil
	})
	var dl *core.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want deadlock through channels", err)
	}
}

func TestChannelSendAfterCloseFails(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		ch := NewChannel[int](tk)
		if err := ch.Close(tk); err != nil {
			return err
		}
		if err := ch.Send(tk, 1); err == nil {
			return errors.New("send after close succeeded")
		}
		return nil
	})
}

func TestChannelZeroValues(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		ch := NewChannel[int](tk)
		if err := ch.Send(tk, 0); err != nil {
			return err
		}
		v, ok, err := ch.Recv(tk)
		if err != nil || !ok || v != 0 {
			return fmt.Errorf("zero send lost: %v %v %v", v, ok, err)
		}
		return ch.Close(tk)
	})
}

// TestChannelSendRecvAllocs pins a send+recv pair at one allocation, the
// next link's promise, in every mode: the link label is built once per
// channel, not once per send.
func TestChannelSendRecvAllocs(t *testing.T) {
	for _, mode := range testutil.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := core.NewRuntime(core.WithMode(mode))
			testutil.MustSucceed(t, rt, func(tk *core.Task) error {
				ch := NewChannelNamed[int](tk, "pipe")
				var err error
				got := testing.AllocsPerRun(200, func() {
					if err == nil {
						err = ch.Send(tk, 1)
					}
					if err == nil {
						_, _, err = ch.Recv(tk)
					}
				})
				if err != nil {
					return err
				}
				if got != 1 {
					t.Errorf("send+recv allocates %v/op, want 1", got)
				}
				return ch.Close(tk)
			})
		})
	}
}
