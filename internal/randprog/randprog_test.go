package randprog

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(7))
	b := Generate(DefaultConfig(7))
	if a.TaskCount() != b.TaskCount() || a.PromiseCount() != b.PromiseCount() {
		t.Fatal("same seed, different shape")
	}
	for i := range a.tasks {
		if len(a.tasks[i].keeps) != len(b.tasks[i].keeps) ||
			len(a.tasks[i].awaits) != len(b.tasks[i].awaits) ||
			len(a.tasks[i].children) != len(b.tasks[i].children) {
			t.Fatalf("task %d differs between identical seeds", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(DefaultConfig(1))
	b := Generate(DefaultConfig(2))
	same := true
	for i := range a.tasks {
		if len(a.tasks[i].awaits) != len(b.tasks[i].awaits) || a.tasks[i].parent != b.tasks[i].parent {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs (suspicious)")
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Tasks: 0},
		{Tasks: 1, Promises: -1},
		{Tasks: 1, CycleLen: -2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			Generate(cfg)
		}()
	}
}

// Property: clean programs complete with no error (in particular, no false
// deadlock alarm) under every mode and both detectors.
func TestPropertyNoFalseAlarms(t *testing.T) {
	check := func(seed int64) bool {
		cfg := DefaultConfig(seed)
		prog := Generate(cfg)
		for _, mode := range testutil.AllModes() {
			rt := core.NewRuntime(core.WithMode(mode))
			if err := rt.Run(prog.Main()); err != nil {
				t.Logf("seed %d mode %v: %v", seed, mode, err)
				return false
			}
		}
		rt := core.NewRuntime(core.WithMode(core.Full), core.WithDetector(core.DetectGlobalLock))
		if err := rt.Run(prog.Main()); err != nil {
			t.Logf("seed %d global-lock: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every injected deadlock ring is detected in Full mode, for
// rings of length 1 through 6 across random surrounding programs, and the
// program still terminates (the cascade unblocks the ring members).
func TestPropertyInjectedDeadlocksDetected(t *testing.T) {
	check := func(seed int64, lenSel uint8) bool {
		cfg := DefaultConfig(seed)
		cfg.Tasks = 40
		cfg.Promises = 80
		cfg.CycleLen = 1 + int(lenSel%6)
		prog := Generate(cfg)
		for _, kind := range []core.DetectorKind{core.DetectLockFree, core.DetectGlobalLock} {
			rt := core.NewRuntime(core.WithMode(core.Full), core.WithDetector(kind))
			err := rt.Run(prog.Main())
			var dl *core.DeadlockError
			if !errors.As(err, &dl) {
				t.Logf("seed %d len %d kind %v: no deadlock error (%v)", seed, cfg.CycleLen, kind, err)
				return false
			}
			if len(dl.Cycle) > cfg.CycleLen {
				t.Logf("seed %d: cycle reported %d nodes, injected %d", seed, len(dl.Cycle), cfg.CycleLen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clean part of a program completes correctly even when a
// deadlock is detected elsewhere — the alarm is contained to the ring.
func TestPropertyCleanPartUnaffectedByRing(t *testing.T) {
	check := func(seed int64) bool {
		cfg := DefaultConfig(seed)
		cfg.Tasks = 30
		cfg.Promises = 60
		cfg.CycleLen = 2
		prog := Generate(cfg)
		rt := core.NewRuntime(core.WithMode(core.Full))
		err := rt.Run(prog.Main())
		if err == nil {
			return false // the ring must have errored
		}
		// Errors must concern only ring tasks/promises: a DeadlockError,
		// BrokenPromiseErrors for ring promises, and nothing else.
		for _, e := range rt.Errors() {
			var dl *core.DeadlockError
			var bp *core.BrokenPromiseError
			var om *core.OmittedSetError
			switch {
			case errors.As(e, &dl), errors.As(e, &bp), errors.As(e, &om):
			default:
				t.Logf("seed %d: unexpected error kind: %v", seed, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: ownership bookkeeping is exact — the counter variant reports
// nothing on clean programs (its count returns to zero in every task).
func TestPropertyCounterTrackingExact(t *testing.T) {
	check := func(seed int64) bool {
		prog := Generate(DefaultConfig(seed))
		rt := core.NewRuntime(core.WithMode(core.Full), core.WithOwnedTracking(core.TrackCounter))
		if err := rt.Run(prog.Main()); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: event counters balance — gets >= awaits performed, and sets
// equals the number of promises (each is fulfilled exactly once).
func TestPropertyEventCountersBalance(t *testing.T) {
	check := func(seed int64) bool {
		cfg := DefaultConfig(seed)
		prog := Generate(cfg)
		rt := core.NewRuntime(core.WithMode(core.Full), core.WithEventCounting(true))
		if err := rt.Run(prog.Main()); err != nil {
			return false
		}
		st := rt.Stats()
		if st.Sets != int64(cfg.Promises) {
			t.Logf("seed %d: %d sets for %d promises", seed, st.Sets, cfg.Promises)
			return false
		}
		if st.Tasks != int64(cfg.Tasks) {
			t.Logf("seed %d: %d tasks for %d planned", seed, st.Tasks, cfg.Tasks)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRingLengthOne(t *testing.T) {
	cfg := Config{Seed: 3, Tasks: 1, Promises: 0, CycleLen: 1}
	prog := Generate(cfg)
	if !prog.HasCycle() {
		t.Fatal("HasCycle")
	}
	rt := core.NewRuntime(core.WithMode(core.Full))
	err := testutil.Run(t, rt, prog.Main())
	var dl *core.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v", err)
	}
	if len(dl.Cycle) != 1 {
		t.Fatalf("cycle = %v", dl.Cycle)
	}
}

func TestLargeCleanProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("large program")
	}
	cfg := Config{Seed: 42, Tasks: 2500, Promises: 5000, MaxAwaits: 2, AwaitProb: 0.8, Work: 20}
	prog := Generate(cfg)
	rt := core.NewRuntime(core.WithMode(core.Full))
	if err := testutil.Run(t, rt, prog.Main()); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Tasks; got != 2500 {
		t.Fatalf("tasks = %d", got)
	}
}

// TestConfigRoundTripsThroughMeta: every knob must survive the
// record/replay meta round-trip.
func TestConfigRoundTripsThroughMeta(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.CycleLen = 3
	got, ok, err := ConfigFromMeta(cfg.MetaJSON())
	if err != nil || !ok {
		t.Fatalf("ConfigFromMeta = %v, %v", ok, err)
	}
	if got != cfg {
		t.Fatalf("round-trip changed config: %+v != %+v", got, cfg)
	}
}

// TestLegacyInlineMetaStillReplays: traces recorded while randprog had
// an inline-spawn knob carry an "inline_prob" key in their meta record.
// Such a record must still decode, and regenerate exactly the program the
// same record without the key does: the knob drew from its own rng
// stream, so it never shaped the program.
func TestLegacyInlineMetaStillReplays(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.CycleLen = 3
	plain := cfg.MetaJSON()
	old := strings.TrimSuffix(plain, "}") + `,"inline_prob":0.5}`
	want, _, err := ConfigFromMeta(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := ConfigFromMeta(old)
	if err != nil || !ok {
		t.Fatalf("ConfigFromMeta(%s) = %v, %v", old, ok, err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(Generate(got), Generate(want)) {
		t.Fatal("a meta record with inline_prob regenerates a different program")
	}
}
