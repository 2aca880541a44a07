// Command promisefuzz stress-validates the detector's precision claim
// (Corollary 5.7: alarm ⇔ deadlock) on randomly generated programs:
//
//   - clean programs (deadlock-free by construction) must complete with
//     zero alarms under every mode, both detectors, and all owned-set
//     representations;
//   - programs with an injected deadlock ring must raise at least one
//     DeadlockError and still terminate (the exceptional-completion
//     cascade drains the cycle).
//
// Any violation prints the offending seed and exits nonzero, so the seed
// can be replayed:
//
//	promisefuzz [-n trials] [-seed base] [-tasks N] [-promises N]
//	            [-cycle maxLen] [-record dir] [-replay file] [-v]
//
// With -record, every trial streams its events to a binary trace file in
// dir (one per seed and configuration, with the generating randprog
// config embedded as a meta record), and each trace is immediately
// re-verified offline — the detector's verdict must match the one
// internal/trace.Verify re-derives from the trace alone. The files can
// be re-checked or inspected later with cmd/tracecheck.
//
// With -replay, promisefuzz loads one recorded trace, verifies it
// offline, regenerates the identical program from the embedded config,
// re-runs it under the recorded runtime configuration while recording
// again, and demands the fresh run's verdict match the original's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/randprog"
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
	trials := flag.Int("n", 100, "number of random programs per family")
	base := flag.Int64("seed", time.Now().UnixNano()%1_000_000, "base seed (printed for replay)")
	tasks := flag.Int("tasks", 100, "tasks per generated program")
	promises := flag.Int("promises", 200, "promises per generated program")
	maxCycle := flag.Int("cycle", 6, "maximum injected cycle length")
	record := flag.String("record", "", "record every trial's trace into this directory and re-verify it offline")
	replayFile := flag.String("replay", "", "replay one recorded trace: regenerate the program, re-run, compare verdicts")
	verbose := flag.Bool("v", false, "log every trial")
	flag.Parse()

	if *replayFile != "" {
		os.Exit(replay(*replayFile, *verbose))
	}
	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "promisefuzz: %v\n", err)
			os.Exit(2)
		}
	}

	fmt.Printf("promisefuzz: base seed %d, %d trials per family\n", *base, *trials)
	fails := 0
	fails += fuzzClean(*base, *trials, *tasks, *promises, *record, *verbose)
	fails += fuzzCycles(*base, *trials, *tasks, *promises, *maxCycle, *record, *verbose)
	if fails > 0 {
		fmt.Printf("FAIL: %d violations\n", fails)
		os.Exit(1)
	}
	if *record != "" {
		fmt.Println("PASS: no false alarms, no missed deadlocks; all traces re-verified offline")
		return
	}
	fmt.Println("PASS: no false alarms, no missed deadlocks")
}

func configs() []struct {
	name string
	opts []core.Option
} {
	return []struct {
		name string
		opts []core.Option
	}{
		{"unverified", []core.Option{core.WithMode(core.Unverified)}},
		{"ownership", []core.Option{core.WithMode(core.Ownership)}},
		{"full/lockfree", []core.Option{core.WithMode(core.Full)}},
		{"full/globallock", []core.Option{core.WithMode(core.Full), core.WithDetector(core.DetectGlobalLock)}},
		{"full/lazy", []core.Option{core.WithMode(core.Full), core.WithOwnedTracking(core.TrackListLazy)}},
		{"full/counter", []core.Option{core.WithMode(core.Full), core.WithOwnedTracking(core.TrackCounter)}},
	}
}

// tracePath names a recorded trace after its family, seed, and config.
func tracePath(dir, family string, seed int64, cname string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.trace", family, seed, strings.ReplaceAll(cname, "/", "-")))
}

// startRecording opens the trace file and writes the randprog meta
// record so the trace alone can regenerate the program. It returns the
// extra runtime options and a finish func that closes the sink and
// re-verifies the trace offline against the expected verdict
// ("clean" or "deadlock"); finish reports a verdict mismatch as an
// error string ("" = ok).
func startRecording(path string, cfg randprog.Config) ([]core.Option, func(rt *core.Runtime, expect string) string, error) {
	sink, err := trace.NewFileSink(path)
	if err != nil {
		return nil, nil, err
	}
	if err := sink.WriteEvents([]trace.Event{{Kind: trace.KindMeta, Detail: cfg.MetaJSON()}}); err != nil {
		return nil, nil, err
	}
	finish := func(rt *core.Runtime, expect string) string {
		if err := rt.TraceClose(); err != nil {
			return fmt.Sprintf("trace close: %v", err)
		}
		if d := rt.Stats().EventsDropped; d != 0 {
			return fmt.Sprintf("trace dropped %d events", d)
		}
		evs, err := trace.ReadFile(path)
		if err != nil {
			return fmt.Sprintf("trace reload: %v", err)
		}
		rep := trace.Verify(evs)
		if !rep.Consistent() {
			return fmt.Sprintf("offline verifier found %d problem(s), first: %s", len(rep.Problems), rep.Problems[0])
		}
		switch expect {
		case "clean":
			if !rep.Clean() {
				return fmt.Sprintf("offline verdict not clean (%d alarms)", len(rep.Alarms))
			}
		case "deadlock":
			if rep.Deadlocks != 1 {
				return fmt.Sprintf("offline verifier saw %d deadlock alarms, want 1", rep.Deadlocks)
			}
		}
		return ""
	}
	return []core.Option{core.TraceTo(sink)}, finish, nil
}

// runTrial runs one (program, runtime-config) trial, recording and
// offline-verifying its trace when record is set. check inspects the
// run's error and returns a failure message ("" = pass). The returned
// count is the number of failures (run verdict and trace verdict are
// counted separately, like the pre-recording behaviour).
func runTrial(record, family string, cfg randprog.Config, cname string, opts []core.Option, expect string,
	check func(err error) string) (fails int) {
	var finish func(*core.Runtime, string) string
	if record != "" {
		extra, f, err := startRecording(tracePath(record, family, cfg.Seed, cname), cfg)
		if err != nil {
			fmt.Printf("RECORD FAILURE: %s seed %d under %s: %v\n", family, cfg.Seed, cname, err)
			return 1
		}
		opts = append(append([]core.Option(nil), opts...), extra...)
		finish = f
	}
	rt := core.NewRuntime(opts...)
	err := runFrozen(rt, time.Minute, randprog.Generate(cfg).Main())
	if msg := check(err); msg != "" {
		fmt.Printf("%s: seed %d under %s\n", msg, cfg.Seed, cname)
		fails++
	}
	if finish != nil {
		if errors.Is(err, core.ErrTimeout) {
			// The program is still running, so the trace cannot be
			// finalized or meaningfully verified; the hang itself was
			// already counted by check. Close best-effort for the file.
			rt.TraceClose()
		} else if msg := finish(rt, expect); msg != "" {
			fmt.Printf("TRACE MISMATCH: %s seed %d under %s: %s\n", family, cfg.Seed, cname, msg)
			fails++
		}
	}
	return fails
}

func fuzzClean(base int64, trials, tasks, promises int, record string, verbose bool) (fails int) {
	for i := 0; i < trials; i++ {
		seed := base + int64(i)
		cfg := randprog.Config{
			Seed: seed, Tasks: tasks, Promises: promises,
			MaxAwaits: 3, AwaitProb: 0.8, Work: 100,
		}
		for _, c := range configs() {
			fails += runTrial(record, "clean", cfg, c.name, c.opts, "clean", func(err error) string {
				if err != nil {
					return fmt.Sprintf("FALSE ALARM: %v", err)
				}
				if verbose {
					fmt.Printf("clean seed %d under %s: ok\n", seed, c.name)
				}
				return ""
			})
		}
	}
	return fails
}

func fuzzCycles(base int64, trials, tasks, promises, maxCycle int, record string, verbose bool) (fails int) {
	detectors := []struct {
		name string
		opts []core.Option
	}{
		{"full/lockfree", []core.Option{core.WithMode(core.Full)}},
		{"full/globallock", []core.Option{core.WithMode(core.Full), core.WithDetector(core.DetectGlobalLock)}},
	}
	for i := 0; i < trials; i++ {
		seed := base + int64(i)
		cfg := randprog.Config{
			Seed: seed, Tasks: tasks, Promises: promises,
			MaxAwaits: 3, AwaitProb: 0.8, Work: 100,
			CycleLen: 1 + i%maxCycle,
		}
		for _, c := range detectors {
			fails += runTrial(record, "cycle", cfg, c.name, c.opts, "deadlock", func(err error) string {
				var dl *core.DeadlockError
				switch {
				case errors.Is(err, core.ErrTimeout):
					return fmt.Sprintf("HANG: cycle %d (cascade failed)", cfg.CycleLen)
				case !errors.As(err, &dl):
					return fmt.Sprintf("MISSED DEADLOCK: cycle %d: %v", cfg.CycleLen, err)
				default:
					if verbose {
						fmt.Printf("cycle seed %d len %d under %s: detected (%d nodes)\n",
							seed, cfg.CycleLen, c.name, len(dl.Cycle))
					}
					return ""
				}
			})
		}
	}
	return fails
}

// replay re-derives a recorded trial: verify the trace offline,
// regenerate the identical program from the embedded meta record, re-run
// it under the recorded configuration, and compare verdicts.
func replay(path string, verbose bool) int {
	evs, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promisefuzz: %v\n", err)
		return 2
	}
	rep := trace.Verify(evs)
	fmt.Printf("%s: %s\n", path, rep.Summary())
	if !rep.Consistent() {
		for _, p := range rep.Problems {
			fmt.Printf("  problem: %s\n", p)
		}
		return 1
	}

	var cfg randprog.Config
	found := false
	for _, m := range rep.Meta {
		c, ok, err := randprog.ConfigFromMeta(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "promisefuzz: %v\n", err)
			return 2
		}
		if ok {
			cfg, found = c, true
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "promisefuzz: trace carries no randprog meta record (not recorded by -record?)")
		return 2
	}

	opts, err := optionsFor(rep.Mode, rep.Detector, rep.Tracking)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promisefuzz: %v\n", err)
		return 2
	}
	fmt.Printf("  replaying: seed %d, %d tasks, %d promises, cycle %d under mode=%s detector=%s tracking=%s\n",
		cfg.Seed, cfg.Tasks, cfg.Promises, cfg.CycleLen, rep.Mode, rep.Detector, rep.Tracking)

	mem := trace.NewMemSink(0)
	rt := core.NewRuntime(append(opts, core.TraceTo(mem))...)
	runErr := runFrozen(rt, time.Minute, randprog.Generate(cfg).Main())
	if err := rt.TraceClose(); err != nil {
		fmt.Fprintf(os.Stderr, "promisefuzz: %v\n", err)
		return 2
	}
	rep2 := trace.Verify(mem.Snapshot())
	fmt.Printf("  re-run: %s\n", rep2.Summary())
	if verbose && runErr != nil {
		fmt.Printf("  re-run error: %v\n", runErr)
	}

	switch {
	case !rep2.Consistent():
		fmt.Println("REPLAY MISMATCH: re-run trace failed offline verification")
		return 1
	case (rep.Deadlocks > 0) != (rep2.Deadlocks > 0):
		fmt.Printf("REPLAY MISMATCH: original had %d deadlock alarm(s), re-run %d\n", rep.Deadlocks, rep2.Deadlocks)
		return 1
	case (len(rep.Alarms) == 0) != (len(rep2.Alarms) == 0):
		fmt.Printf("REPLAY MISMATCH: original had %d alarm(s), re-run %d\n", len(rep.Alarms), len(rep2.Alarms))
		return 1
	}
	fmt.Println("REPLAY OK: verdicts agree")
	return 0
}

// optionsFor maps recorded trace metadata back to runtime options.
func optionsFor(mode, detector, tracking string) ([]core.Option, error) {
	var opts []core.Option
	switch mode {
	case "unverified":
		opts = append(opts, core.WithMode(core.Unverified))
	case "ownership":
		opts = append(opts, core.WithMode(core.Ownership))
	case "full", "":
		opts = append(opts, core.WithMode(core.Full))
	default:
		return nil, fmt.Errorf("unknown recorded mode %q", mode)
	}
	switch detector {
	case "lockfree", "":
	case "globallock":
		opts = append(opts, core.WithDetector(core.DetectGlobalLock))
	default:
		return nil, fmt.Errorf("unknown recorded detector %q", detector)
	}
	switch tracking {
	case "list", "":
	case "lazy":
		opts = append(opts, core.WithOwnedTracking(core.TrackListLazy))
	case "counter":
		opts = append(opts, core.WithOwnedTracking(core.TrackCounter))
	default:
		return nil, fmt.Errorf("unknown recorded tracking %q", tracking)
	}
	return opts, nil
}
