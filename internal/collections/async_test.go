package collections

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestThen(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		p := core.NewPromise[int](tk)
		doubled, err := Then(tk, p, func(c *core.Task, v int) (int, error) { return v * 2, nil })
		if err != nil {
			return err
		}
		squared, err := Then(tk, doubled, func(c *core.Task, v int) (int, error) { return v * v, nil })
		if err != nil {
			return err
		}
		if err := p.Set(tk, 3); err != nil {
			return err
		}
		v, err := squared.Get(tk)
		if err != nil {
			return err
		}
		if v != 36 {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
}

func TestThenPropagatesSourceFailure(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	sentinel := errors.New("src failed")
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		p := core.NewPromise[int](tk)
		out, err := Then(tk, p, func(c *core.Task, v int) (int, error) { return v, nil })
		if err != nil {
			return err
		}
		if err := p.SetError(tk, sentinel); err != nil {
			return err
		}
		if _, e := out.Get(tk); !errors.Is(e, sentinel) {
			return fmt.Errorf("then output = %v", e)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("runtime did not record: %v", err)
	}
}

func TestThenCombine(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		a := core.NewPromise[int](tk)
		b := core.NewPromise[string](tk)
		out, err := ThenCombine(tk, a, b, func(c *core.Task, x int, s string) (string, error) {
			return fmt.Sprintf("%s-%d", s, x), nil
		})
		if err != nil {
			return err
		}
		if err := a.Set(tk, 7); err != nil {
			return err
		}
		if err := b.Set(tk, "id"); err != nil {
			return err
		}
		v, err := out.Get(tk)
		if err != nil {
			return err
		}
		if v != "id-7" {
			return fmt.Errorf("v = %q", v)
		}
		return nil
	})
}

func TestAsyncAwaitRunsAfterDeps(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	var ready atomic.Int32
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		a := core.NewPromise[int](tk)
		b := core.NewPromise[int](tk)
		out := core.NewPromise[int](tk)
		if _, err := AsyncAwait(tk, []core.AnyPromise{a, b}, func(c *core.Task) error {
			if ready.Load() != 2 {
				return fmt.Errorf("data-driven task ran with %d/2 deps fulfilled", ready.Load())
			}
			return out.Set(c, 1)
		}, out); err != nil {
			return err
		}
		ready.Add(1)
		if err := a.Set(tk, 1); err != nil {
			return err
		}
		time.Sleep(10 * time.Millisecond) // give the DDF a chance to misfire
		ready.Add(1)
		if err := b.Set(tk, 2); err != nil {
			return err
		}
		_, err := out.Get(tk)
		return err
	})
}

func TestAsyncAwaitChain(t *testing.T) {
	// A dataflow DAG built entirely from data-driven tasks completes in
	// dependency order.
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		const n = 20
		ps := make([]*core.Promise[int], n)
		for i := range ps {
			ps[i] = core.NewPromise[int](tk)
		}
		for i := 1; i < n; i++ {
			i := i
			if _, err := AsyncAwait(tk, []core.AnyPromise{ps[i-1]}, func(c *core.Task) error {
				v, err := ps[i-1].Get(c) // fulfilled: fast path
				if err != nil {
					return err
				}
				return ps[i].Set(c, v+1)
			}, ps[i]); err != nil {
				return err
			}
		}
		if err := ps[0].Set(tk, 0); err != nil {
			return err
		}
		v, err := ps[n-1].Get(tk)
		if err != nil {
			return err
		}
		if v != n-1 {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
}

func TestAsyncAwaitFailedDepCascades(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	err := testutil.Run(t, rt, func(tk *core.Task) error {
		dep := core.NewPromiseNamed[int](tk, "dep")
		out := core.NewPromiseNamed[int](tk, "out")
		if _, err := AsyncAwait(tk, []core.AnyPromise{dep}, func(c *core.Task) error {
			return out.Set(c, 1)
		}, out); err != nil {
			return err
		}
		// The dep's owner dies: the DDF must fail, and its own obligation
		// (out) must cascade onward.
		if _, err := tk.AsyncNamed("dep-owner", func(c *core.Task) error {
			return nil // leaks dep
		}, dep); err != nil {
			return err
		}
		_, e := out.Get(tk)
		var bp *core.BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("out = %v", e)
		}
		return nil
	})
	var om *core.OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("no omitted set recorded: %v", err)
	}
}
