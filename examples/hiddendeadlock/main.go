// Hidden deadlock: the paper's Listing 1 staged as a tiny "service".
//
// A request handler and a metadata loader wait on each other's promises —
// a genuine deadlock — while a long-running server task keeps the process
// busy. Whole-program detectors (like the Go runtime's "all goroutines
// are asleep" check) can never fire here because the server is always
// runnable. The ownership-based detector names the cycle the moment the
// second task blocks.
//
// The run is also recorded through the binary trace subsystem and
// re-verified offline: the output's last line is the tracecheck verdict,
// proving the alarm corresponds to a real cycle in the waits-for graph
// reconstructed from the trace alone. With -trace <file> the trace is
// written to disk (inspect it with `go run ./cmd/tracecheck -v <file>`);
// without it the round-trip happens through an in-memory encoding.
//
// Run with: go run ./examples/hiddendeadlock [-mode unverified|full] [-trace file]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// runFrozen is the hang-tolerant demo driver: run main, and if it has
// not finished after d, abandon the frozen task tree (RunDetached — no
// cancellation, so the hang stays observable) and report ErrTimeout as
// the deadline's cause.
func runFrozen(rt *core.Runtime, d time.Duration, main core.TaskFunc) error {
	ctx, cancel := context.WithTimeoutCause(context.Background(), d, core.ErrTimeout)
	defer cancel()
	return rt.RunDetached(ctx, main)
}

func main() {
	modeFlag := flag.String("mode", "full", "unverified (hangs, rescued by timeout) or full (immediate alarm)")
	traceFlag := flag.String("trace", "", "also write the binary trace to this file")
	flag.Parse()
	mode := core.Full
	if *modeFlag == "unverified" {
		mode = core.Unverified
	}

	// Record the whole run in the binary trace format — to a file when
	// -trace is given, and always through an in-memory buffer so the
	// encode -> decode -> verify round-trip is part of the demo.
	var encoded bytes.Buffer
	opts := []core.Option{core.WithMode(mode), core.TraceTo(trace.NewWriterSink(&encoded))}
	if *traceFlag != "" {
		sink, err := trace.NewFileSink(*traceFlag)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		opts = append(opts, core.TraceTo(sink))
	}

	start := time.Now()
	var detectedAt time.Duration
	var stopServer sync.Once
	serverDone := make(chan struct{})
	opts = append(opts, core.WithAlarmHandler(func(err error) {
		var dl *core.DeadlockError
		if errors.As(err, &dl) && detectedAt == 0 {
			detectedAt = time.Since(start)
		}
		// Once the bug is caught there is nothing left to demonstrate:
		// release the bystander so the program unwinds and the recorded
		// trace ends with a proper run-end marker. (In unverified mode no
		// alarm ever fires — the hang below is the point.)
		stopServer.Do(func() { close(serverDone) })
	}))
	rt := core.NewRuntime(opts...)
	err := runFrozen(rt, 3*time.Second, func(root *core.Task) error {
		config := core.NewPromiseNamed[string](root, "config")
		metadata := core.NewPromiseNamed[string](root, "metadata")

		// The long-running bystander: a "server" that polls forever.
		if _, err := root.AsyncNamed("server", func(t *core.Task) error {
			<-serverDone
			return nil
		}); err != nil {
			return err
		}

		// The metadata loader: needs the config before publishing metadata.
		if _, err := root.AsyncNamed("loader", func(t *core.Task) error {
			cfg, err := config.Get(t) // stuck: config is set after metadata
			if err != nil {
				return err
			}
			return metadata.Set(t, "meta("+cfg+")")
		}, metadata); err != nil {
			return err
		}

		// The root: wants metadata before providing the config. Cycle!
		md, err := metadata.Get(root)
		if err != nil {
			return err
		}
		if err := config.Set(root, "cfg"); err != nil {
			return err
		}
		fmt.Println("metadata:", md)
		return nil
	})
	elapsed := time.Since(start)
	// In the unverified (timeout) path the server is never released:
	// every task stays parked (the deadlocked pair forever, the server
	// on its channel), so the trace round-trip below runs with no
	// concurrent writers and the recorded trace is deterministic; the
	// goroutines are abandoned to process exit (see the note at the end
	// of main). In full mode the alarm handler already released the
	// server and Run unwound completely.

	var dl *core.DeadlockError
	switch {
	case errors.As(err, &dl):
		fmt.Printf("deadlock detected after %v (server still running):\n", detectedAt.Round(time.Millisecond))
		for _, n := range dl.Cycle {
			fmt.Printf("  task %-8s awaits %s\n", n.TaskName(), n.PromiseLabel())
		}
	case errors.Is(err, core.ErrTimeout):
		fmt.Printf("no alarm after %v: the deadlock is invisible (the server task keeps the program 'alive')\n",
			elapsed.Round(time.Millisecond))
	case err != nil:
		fmt.Println("error:", err)
	default:
		fmt.Println("completed (unexpected for this demo)")
	}

	// The tracecheck round-trip: flush the trace, decode the binary
	// stream, and let the offline verifier re-derive the verdict from
	// the events alone.
	if err := rt.TraceClose(); err != nil {
		fmt.Println("trace close:", err)
		return
	}
	evs, derr := trace.ReadAll(bytes.NewReader(encoded.Bytes()))
	if derr != nil {
		fmt.Println("trace decode:", derr)
		return
	}
	rep := trace.Verify(evs)
	fmt.Printf("tracecheck: %s\n", rep.Summary())
	for _, a := range rep.Alarms {
		if a.Class == trace.AlarmDeadlock {
			fmt.Printf("tracecheck: deadlock cycle of %d task(s) re-verified in the reconstructed waits-for graph: %v\n",
				a.CycleLen, a.CycleVerified)
		}
	}
	if *traceFlag != "" {
		fmt.Printf("trace written to %s (inspect with: go run ./cmd/tracecheck -v %s)\n", *traceFlag, *traceFlag)
	}
	// The server is deliberately NOT released here in the unverified
	// path: the trace is closed, so waking it would record into a closed
	// collector. Its goroutine (like the deadlocked pair's) is abandoned
	// to process exit, which is RunDetached's documented behaviour
	// for hung demos.
}
