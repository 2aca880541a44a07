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
//   - a gap record, which leads a window missing its oldest events (a
//     trimmed trace.MemSink, or a front verdict's trace cut to fit its
//     frame), makes the verdict INCOMPLETE: replay checks are skipped,
//     and the trace does not count as consistent.
//
// Usage:
//
//	tracecheck [-v] [-expect clean|deadlock|alarm|incomplete|any] file...
//
// With -expect, the exit status also enforces the expected verdict:
// "clean" requires zero alarms, "deadlock" exactly one re-verified
// deadlock cycle, "alarm" at least one alarm, "incomplete" a trace with
// a gap record. "-" reads stdin.
//
// Exit status: 0 when every trace is consistent and matches -expect; 1
// when any trace is INVALID, unreadable or misses its expectation; 3
// when none of that holds but some trace is INCOMPLETE, a cut window no
// replay could judge, which is not a broken run (-expect incomplete
// accepts it); 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// Exit statuses beyond 0 (every trace passed) and 2 (usage).
const (
	exitFailed     = 1 // a trace is invalid, unreadable or missed -expect
	exitIncomplete = 3 // no failure, but a trace is incomplete
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command: it checks every trace named in args and returns
// the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print every alarm and problem, plus per-trace detail")
	expect := fs.String("expect", "any", "required verdict: clean, deadlock, alarm, incomplete, any")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: tracecheck [-v] [-expect clean|deadlock|alarm|incomplete|any] file...")
		return 2
	}
	switch *expect {
	case "clean", "deadlock", "alarm", "incomplete", "any":
	default:
		fmt.Fprintf(stderr, "unknown -expect %q\n", *expect)
		return 2
	}

	status := 0
	for _, path := range fs.Args() {
		switch check(path, *expect, *verbose, stdin, stdout, stderr) {
		case exitFailed:
			status = exitFailed
		case exitIncomplete:
			if status == 0 {
				status = exitIncomplete
			}
		}
	}
	return status
}

// check verifies one trace and returns its exit status: 0, exitFailed
// or exitIncomplete.
func check(path, expect string, verbose bool, stdin io.Reader, stdout, stderr io.Writer) int {
	var evs []trace.Event
	var err error
	if path == "-" {
		evs, err = trace.ReadAll(stdin)
	} else {
		evs, err = trace.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(stderr, "tracecheck: %v\n", err)
		return exitFailed
	}
	rep := trace.Verify(evs)
	fmt.Fprintf(stdout, "%s: %s\n", path, rep.Summary())
	if verbose {
		if rep.Mode != "" {
			fmt.Fprintf(stdout, "  config: mode=%s detector=%s tracking=%s\n", rep.Mode, rep.Detector, rep.Tracking)
		}
		for _, a := range rep.Alarms {
			status := ""
			if a.Class == trace.AlarmDeadlock {
				status = fmt.Sprintf(" [cycle len %d, verified=%v]", a.CycleLen, a.CycleVerified)
			}
			fmt.Fprintf(stdout, "  alarm #%d%s: %s\n", a.Seq, status, a.Detail)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "  problem: %s\n", p)
	}

	switch {
	case !rep.Complete && expect == "incomplete":
		return 0
	case !rep.Complete:
		return exitIncomplete
	case expect == "incomplete":
		fmt.Fprintln(stdout, "  EXPECTATION FAILED: wanted an incomplete trace, got a complete one")
		return exitFailed
	case !rep.Consistent():
		return exitFailed
	}
	switch expect {
	case "clean":
		if !rep.Clean() {
			fmt.Fprintf(stdout, "  EXPECTATION FAILED: wanted a clean run, got %d alarm(s)\n", len(rep.Alarms))
			return exitFailed
		}
	case "deadlock":
		if rep.Deadlocks != 1 {
			fmt.Fprintf(stdout, "  EXPECTATION FAILED: wanted exactly one deadlock alarm, got %d\n", rep.Deadlocks)
			return exitFailed
		}
		for _, a := range rep.Alarms {
			if a.Class == trace.AlarmDeadlock && !a.CycleVerified {
				fmt.Fprintln(stdout, "  EXPECTATION FAILED: deadlock cycle did not re-verify")
				return exitFailed
			}
		}
	case "alarm":
		if len(rep.Alarms) == 0 {
			fmt.Fprintln(stdout, "  EXPECTATION FAILED: wanted at least one alarm, got none")
			return exitFailed
		}
	}
	return 0
}
