// Command deadlock demonstrates the paper's motivating bugs (Listings
// 1-3) under each verification mode:
//
//   - listing1: the hidden two-task deadlock cycle (§1, Listing 1) — the
//     baseline hangs behind a long-running bystander task; Full mode names
//     the cycle the instant it forms.
//   - listing2: the omitted set with delegated responsibility (Listing 2)
//     — Ownership mode blames the exact task and promise.
//   - listing3: the AWS SDK bug (Listing 3) — an error path that forgets
//     to complete the future; the verified runtime converts the silent
//     hang into an attributed error.
//
// Usage:
//
//	deadlock [-demo listing1|listing2|listing3|all] [-mode unverified|ownership|full]
//	         [-dot] [-events] [-trace file]
//
// -dot prints a Graphviz drawing of the ownership / waits-for graph
// while the program is stuck (requires a hanging mode, i.e. not full),
// replayed by trace.NewGraph from the demo's in-memory event window.
// -events prints that window, one Event.String line per event.
// -trace records each demo's events to a binary trace file (suffixed with
// the demo name when running all) and prints the offline verifier's
// verdict on it — the same check `tracecheck <file>` performs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// runFrozen runs main with a demo deadline, abandoning — NOT cancelling —
// the task tree if it hangs: the blocked tasks stay frozen so -dot can
// draw the stuck state. RunDetached under a deadline ctx whose cause
// is ErrTimeout, so report() classifies hangs as before.
func runFrozen(rt *core.Runtime, d time.Duration, main core.TaskFunc) error {
	ctx, cancel := context.WithTimeoutCause(context.Background(), d, core.ErrTimeout)
	defer cancel()
	return rt.RunDetached(ctx, main)
}

func main() {
	demo := flag.String("demo", "all", "which listing to run: listing1, listing2, listing3, all")
	modeFlag := flag.String("mode", "full", "runtime mode: unverified, ownership, full")
	dot := flag.Bool("dot", false, "print a DOT snapshot of the stuck state (non-full modes)")
	events := flag.Bool("events", false, "print the runtime's policy event log after each demo")
	traceFlag := flag.String("trace", "", "record a binary trace per demo to this file and tracecheck it")
	flag.Parse()
	printEvents = *events
	tracePath = *traceFlag

	mode, err := core.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	demos := map[string]func(core.Mode, bool){
		"listing1": listing1,
		"listing2": listing2,
		"listing3": listing3,
	}
	if *demo == "all" {
		multiDemo = true
		for _, name := range []string{"listing1", "listing2", "listing3"} {
			currentDemo = name
			demos[name](mode, *dot)
		}
		return
	}
	fn, ok := demos[*demo]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown demo %q\n", *demo)
		os.Exit(2)
	}
	currentDemo = *demo
	fn(mode, *dot)
}

// printEvents, when set via -events, appends the runtime's policy event
// log to each demo's report. tracePath, when set via -trace, streams each
// demo's events to a binary trace file.
var (
	printEvents bool
	tracePath   string
	currentDemo string
	multiDemo   bool
)

// demoTracePath names the current demo's trace file: the -trace path
// itself for a single demo, suffixed with the demo name under -demo all.
func demoTracePath() string {
	if multiDemo {
		return tracePath + "." + currentDemo
	}
	return tracePath
}

// newRT builds a demo runtime honoring the -dot, -events and -trace
// flags. -dot and -events read the returned window (nil without them).
// A task parked on a promise has flushed its events, and a child's
// start record is flushed by its spawner, so a hung demo's window holds
// every blocked task and Listing 1's channel-parked bystander.
func newRT(mode core.Mode, dot bool) (*core.Runtime, *trace.MemSink) {
	opts := []core.Option{core.WithMode(mode)}
	var mem *trace.MemSink
	if printEvents || dot {
		mem = trace.NewMemSink(256)
		opts = append(opts, core.TraceTo(mem))
	}
	if tracePath != "" {
		sink, err := trace.NewFileSink(demoTracePath())
		if err != nil {
			fmt.Fprintf(os.Stderr, "deadlock: %v\n", err)
			os.Exit(1)
		}
		opts = append(opts, core.TraceTo(sink))
	}
	return core.NewRuntime(opts...), mem
}

func report(name string, rt *core.Runtime, mem *trace.MemSink, err error) {
	fmt.Printf("== %s under %s mode ==\n", name, rt.Mode())
	var dl *core.DeadlockError
	var om *core.OmittedSetError
	var bp *core.BrokenPromiseError
	alarmed := errors.As(err, &dl) || errors.As(err, &om)
	switch {
	case alarmed:
		fmt.Println("   result: ALARM (raised the moment the bug occurred)")
		if errors.As(err, &dl) {
			fmt.Printf("   deadlock cycle (%d tasks):\n", len(dl.Cycle))
			for _, n := range dl.Cycle {
				fmt.Printf("     task %-6s awaits %s\n", n.TaskName(), n.PromiseLabel())
			}
		}
		if errors.As(err, &om) {
			fmt.Printf("   omitted set: %v\n", om)
		}
		if errors.As(err, &bp) {
			fmt.Printf("   consumer unblocked with: %v\n", bp)
		}
		if errors.Is(err, core.ErrTimeout) {
			fmt.Println("   (unrelated long-running tasks are still alive — the alarm did not have to wait for them)")
		}
	case errors.Is(err, core.ErrTimeout):
		fmt.Println("   result: HUNG (no alarm; the bug is invisible to this mode)")
	case err != nil:
		fmt.Printf("   result: error: %v\n", err)
	default:
		fmt.Println("   result: completed cleanly")
	}
	if printEvents {
		if evs := mem.Snapshot(); len(evs) > 0 {
			fmt.Println("   event log:")
			for _, e := range evs {
				for _, line := range strings.Split(e.String(), "\n") {
					fmt.Println("     " + line)
				}
			}
		}
	}
	if tracePath != "" {
		path := demoTracePath()
		if err := rt.TraceClose(); err != nil {
			fmt.Printf("   trace: close failed: %v\n", err)
		} else if evs, err := trace.ReadFile(path); err != nil {
			fmt.Printf("   trace: reload failed: %v\n", err)
		} else {
			fmt.Printf("   trace: %s — tracecheck: %s\n", path, trace.Verify(evs).Summary())
		}
	}
	fmt.Println()
}

// listing1 is the paper's Listing 1: root and t2 deadlock on p and q while
// t1 keeps running, so whole-program detectors (like the Go runtime's)
// stay silent.
func listing1(mode core.Mode, dot bool) {
	rt, mem := newRT(mode, dot)
	stop := make(chan struct{})
	err := runFrozen(rt, 2*time.Second, func(root *core.Task) error {
		p := core.NewPromiseNamed[int](root, "p")
		q := core.NewPromiseNamed[int](root, "q")
		if _, err := root.AsyncNamed("t1", func(t1 *core.Task) error {
			<-stop // a long-running task, e.g. a web server
			return nil
		}); err != nil {
			return err
		}
		if _, err := root.AsyncNamed("t2", func(t2 *core.Task) error {
			if _, err := p.Get(t2); err != nil { // stuck
				return err
			}
			return q.Set(t2, 0)
		}, q); err != nil {
			return err
		}
		if _, err := q.Get(root); err != nil { // stuck
			return err
		}
		return p.Set(root, 0)
	})
	if dot && errors.Is(err, core.ErrTimeout) {
		fmt.Println(trace.NewGraph(mem.Snapshot()).DOT())
	}
	// The bystander is released only after report() — which closes the
	// trace — so its wakeup does not emit into a closing collector and
	// the recorded trace is deterministic.
	report("Listing 1 (deadlock cycle hidden behind a live task)", rt, mem, err)
	close(stop)
}

// listing2 is the paper's Listing 2: t3 should set r and s, delegates s to
// t4, and t4 forgets.
func listing2(mode core.Mode, dot bool) {
	rt, mem := newRT(mode, dot)
	err := runFrozen(rt, 2*time.Second, func(root *core.Task) error {
		r := core.NewPromiseNamed[int](root, "r")
		s := core.NewPromiseNamed[int](root, "s")
		if _, err := root.AsyncNamed("t3", func(t3 *core.Task) error { // should set r, s
			if _, err := t3.AsyncNamed("t4", func(t4 *core.Task) error { // should set s
				return nil // (forgot to set s)
			}, s); err != nil {
				return err
			}
			return r.Set(t3, 0)
		}, r, s); err != nil {
			return err
		}
		if _, err := r.Get(root); err != nil {
			return err
		}
		_, err := s.Get(root) // stuck
		return err
	})
	report("Listing 2 (omitted set with delegation)", rt, mem, err)
}

// listing3 abbreviates the AWS SDK v2 bug (Listing 3): on checksum
// mismatch the error path returns without completing the future, so the
// consumer of the download hangs.
func listing3(mode core.Mode, dot bool) {
	rt, mem := newRT(mode, dot)
	err := runFrozen(rt, 2*time.Second, func(root *core.Task) error {
		cf := core.NewPromiseNamed[struct{}](root, "cf") // the download future
		if _, err := root.AsyncNamed("onComplete", func(cb *core.Task) error {
			streamChecksum, computedChecksum := 0xBAD, 0xF00D
			onError := func(error) {
				// Originally a no-op; the fix added
				// cf.completeExceptionally(t) here.
			}
			if streamChecksum != computedChecksum {
				onError(errors.New("checksum mismatch"))
				return nil // don't fulfill the promise again
			}
			return cf.Set(cb, struct{}{})
		}, cf); err != nil {
			return err
		}
		// The consumer waiting for the download to complete.
		_, err := cf.Get(root)
		return err
	})
	report("Listing 3 (AWS SDK omitted set on error path)", rt, mem, err)
}
