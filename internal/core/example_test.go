package core_test

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// The basic life of a promise under the ownership policy: the creator
// owns it, a spawn moves it, the owner fulfils it.
func ExampleRuntime_Run() {
	rt := core.NewRuntime()
	err := rt.Run(func(t *core.Task) error {
		p := core.NewPromiseNamed[int](t, "answer")
		if _, err := t.Async(func(child *core.Task) error {
			return p.Set(child, 42)
		}, p); err != nil {
			return err
		}
		v, err := p.Get(t)
		if err != nil {
			return err
		}
		fmt.Println("got", v)
		return nil
	})
	fmt.Println("err:", err)
	// Output:
	// got 42
	// err: <nil>
}

// A deadlock cycle is reported the moment it forms, naming every task and
// promise involved. (Which member of the cycle raises the alarm depends
// on arrival order, so this example reads the cycle from the runtime's
// recorded errors and sorts it for stable output.)
func ExampleDeadlockError() {
	rt := core.NewRuntime()
	err := rt.Run(func(t *core.Task) error {
		p := core.NewPromiseNamed[int](t, "p")
		q := core.NewPromiseNamed[int](t, "q")
		if _, err := t.AsyncNamed("t2", func(t2 *core.Task) error {
			if _, err := p.Get(t2); err != nil {
				return err
			}
			return q.Set(t2, 1)
		}, q); err != nil {
			return err
		}
		_, err := q.Get(t) // completes the cycle: main -> q -> t2 -> p -> main
		return err
	})
	var dl *core.DeadlockError
	if errors.As(err, &dl) {
		fmt.Println("cycle of", len(dl.Cycle), "tasks")
		lines := make([]string, 0, len(dl.Cycle))
		for _, n := range dl.Cycle {
			lines = append(lines, fmt.Sprintf("%s awaits %s", n.TaskName(), n.PromiseLabel()))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	// Output:
	// cycle of 2 tasks
	// main awaits q
	// t2 awaits p
}

// An omitted set is reported when the responsible task exits, and blocked
// consumers are unblocked with the blame attached.
func ExampleOmittedSetError() {
	rt := core.NewRuntime(core.WithMode(core.Ownership))
	err := rt.Run(func(t *core.Task) error {
		result := core.NewPromiseNamed[int](t, "result")
		if _, err := t.AsyncNamed("worker", func(c *core.Task) error {
			return nil // forgot result.Set
		}, result); err != nil {
			return err
		}
		_, err := result.Get(t)
		var broken *core.BrokenPromiseError
		if errors.As(err, &broken) {
			fmt.Printf("consumer unblocked: %s leaked by %s\n", broken.PromiseLabel(), broken.TaskName())
		}
		return nil
	})
	var om *core.OmittedSetError
	if errors.As(err, &om) {
		fmt.Printf("runtime recorded: %s owed %d promise(s)\n", om.TaskName(), len(om.Promises))
	}
	// Output:
	// consumer unblocked: result leaked by worker
	// runtime recorded: worker owed 1 promise(s)
}

// Only the owner may fulfil a promise; a double set is an error even in
// the unverified baseline.
func ExamplePromise_Set() {
	rt := core.NewRuntime()
	_ = rt.Run(func(t *core.Task) error {
		p := core.NewPromiseNamed[int](t, "once")
		fmt.Println("first:", p.Set(t, 1))
		err := p.Set(t, 2)
		var ds *core.DoubleSetError
		fmt.Println("second is double set:", errors.As(err, &ds))
		return nil
	})
	// Output:
	// first: <nil>
	// second is double set: true
}
