// Quickstart: promises with ownership in five minutes.
//
// It shows the three core moves of the ownership policy:
//  1. creating a promise makes you its owner,
//  2. spawning a task can move promises to it (async(p){...}),
//  3. the owner — and only the owner — fulfils each promise exactly once.
//
// It then demonstrates what the policy buys: a forgotten set is reported
// the instant the guilty task exits, with the blame attached, instead of
// hanging the consumer forever.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	fmt.Println("--- part 1: a well-behaved program ---")
	rt := core.NewRuntime() // Full verification is the default
	err := rt.Run(func(t *core.Task) error {
		// Rule 1: the creating task owns the promise.
		greeting := core.NewPromiseNamed[string](t, "greeting")

		// Rule 2: moving `greeting` into the child makes the child
		// responsible for fulfilling it.
		if _, err := t.AsyncNamed("greeter", func(child *core.Task) error {
			// Rule 4: the owner sets the payload, exactly once.
			return greeting.Set(child, "hello from the greeter task")
		}, greeting); err != nil {
			return err
		}

		// Get blocks until the payload arrives. The deadlock detector
		// verified this wait is safe before blocking.
		msg, err := greeting.Get(t)
		if err != nil {
			return err
		}
		fmt.Println("received:", msg)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- part 2: a buggy program, caught ---")
	rt2 := core.NewRuntime()
	err = rt2.Run(func(t *core.Task) error {
		result := core.NewPromiseNamed[int](t, "result")
		// The worker accepts responsibility for `result`... and forgets.
		if _, err := t.AsyncNamed("forgetful-worker", func(child *core.Task) error {
			return nil // oops: no Set
		}, result); err != nil {
			return err
		}
		// Without ownership this Get would hang forever. With it, the
		// runtime completes `result` exceptionally when the worker exits,
		// and we get a precise report instead of a hang.
		_, err := result.Get(t)
		var broken *core.BrokenPromiseError
		if errors.As(err, &broken) {
			fmt.Printf("unblocked with blame: task %q leaked promise %q\n",
				broken.TaskName(), broken.PromiseLabel())
			return nil // handled
		}
		return err
	})
	// The runtime still records the omitted set as a program error.
	var om *core.OmittedSetError
	if errors.As(err, &om) {
		fmt.Println("runtime report:", om)
	}

	fmt.Println("\n--- part 3: a deadlock, caught at formation ---")
	rt3 := core.NewRuntime()
	err = rt3.Run(func(t *core.Task) error {
		p := core.NewPromiseNamed[int](t, "p")
		q := core.NewPromiseNamed[int](t, "q")
		if _, err := t.AsyncNamed("partner", func(child *core.Task) error {
			if _, err := p.Get(child); err != nil {
				return err
			}
			return q.Set(child, 1)
		}, q); err != nil {
			return err
		}
		_, err := q.Get(t) // would close the cycle: root -> q -> partner -> p -> root
		var dl *core.DeadlockError
		if errors.As(err, &dl) {
			fmt.Println("deadlock detected at formation:", dl)
			return p.Set(t, 0) // break the cycle and exit cleanly
		}
		return err
	})
	if err != nil {
		fmt.Println("program finished with recorded errors (expected):")
		fmt.Println("  ", err)
	}
}
