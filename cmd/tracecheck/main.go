// Command tracecheck is the offline, independent verifier for binary
// traces recorded with core.TraceTo (or promisefuzz -record): it loads a
// trace, reconstructs the ownership and waits-for graphs by replaying
// every event, and re-derives the run's verdict without trusting the
// in-process detector.
//
// Checks (see internal/trace.Verify):
//
//   - every deadlock alarm must correspond to a real cycle in the
//     reconstructed waits-for graph at the alarm's sequence point, with
//     the cycle length matching the detector's report;
//   - every omitted-set alarm must blame a task that still owns
//     unfulfilled promises and must precede that task's task-end record;
//   - a terminated run must have unwound completely: every started task
//     ended, no task left blocked, every wake preceded by a fulfilment;
//   - gap records demote the verdict to best-effort (only older
//     trace files have them: the collector no longer drops events).
//
// Usage:
//
//	tracecheck [-v] [-expect clean|deadlock|alarm|any] file...
//
// With -expect, the exit status also enforces the expected verdict:
// "clean" requires zero alarms, "deadlock" exactly one re-verified
// deadlock cycle, "alarm" at least one alarm. "-" reads stdin. Exit 0
// when every trace is consistent (and matches -expect), 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	verbose := flag.Bool("v", false, "print every alarm and problem, plus per-trace detail")
	expect := flag.String("expect", "any", "required verdict: clean, deadlock, alarm, any")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-v] [-expect clean|deadlock|alarm|any] file...")
		os.Exit(2)
	}
	switch *expect {
	case "clean", "deadlock", "alarm", "any":
	default:
		fmt.Fprintf(os.Stderr, "unknown -expect %q\n", *expect)
		os.Exit(2)
	}

	failed := false
	for _, path := range flag.Args() {
		if !check(path, *expect, *verbose) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func check(path, expect string, verbose bool) bool {
	var evs []trace.Event
	var err error
	if path == "-" {
		evs, err = trace.ReadAll(os.Stdin)
	} else {
		evs, err = trace.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
		return false
	}
	rep := trace.Verify(evs)
	fmt.Printf("%s: %s\n", path, rep.Summary())
	if verbose {
		if rep.Mode != "" {
			fmt.Printf("  config: mode=%s detector=%s tracking=%s\n", rep.Mode, rep.Detector, rep.Tracking)
		}
		for _, a := range rep.Alarms {
			status := ""
			if a.Class == trace.AlarmDeadlock {
				status = fmt.Sprintf(" [cycle len %d, verified=%v]", a.CycleLen, a.CycleVerified)
			}
			fmt.Printf("  alarm #%d%s: %s\n", a.Seq, status, a.Detail)
		}
		for _, p := range rep.Problems {
			fmt.Printf("  problem: %s\n", p)
		}
	} else {
		for _, p := range rep.Problems {
			fmt.Printf("  problem: %s\n", p)
		}
	}

	if !rep.Consistent() {
		return false
	}
	switch expect {
	case "clean":
		if !rep.Clean() {
			fmt.Printf("  EXPECTATION FAILED: wanted a clean run, got %d alarm(s)\n", len(rep.Alarms))
			return false
		}
	case "deadlock":
		if rep.Deadlocks != 1 {
			fmt.Printf("  EXPECTATION FAILED: wanted exactly one deadlock alarm, got %d\n", rep.Deadlocks)
			return false
		}
		for _, a := range rep.Alarms {
			if a.Class == trace.AlarmDeadlock && !a.CycleVerified {
				fmt.Println("  EXPECTATION FAILED: deadlock cycle did not re-verify")
				return false
			}
		}
	case "alarm":
		if len(rep.Alarms) == 0 {
			fmt.Println("  EXPECTATION FAILED: wanted at least one alarm, got none")
			return false
		}
	}
	return true
}
