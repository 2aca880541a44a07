package randprog

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Property: the detector's guarantees are executor-independent — random
// clean programs stay alarm-free and injected rings stay detected when
// tasks run on the elastic worker pool instead of goroutine-per-task.
func TestPropertyDetectorExecutorIndependent(t *testing.T) {
	check := func(seed int64, inject bool) bool {
		cfg := DefaultConfig(seed)
		cfg.Tasks = 60
		cfg.Promises = 120
		if inject {
			cfg.CycleLen = 2 + int(seed%3+3)%3
		}
		prog := Generate(cfg)
		pool := sched.NewElastic(20 * time.Millisecond)
		rt := core.NewRuntime(core.WithMode(core.Full), core.WithExecutor(pool))
		err := rt.Run(prog.Main())
		if !inject {
			if err != nil {
				t.Logf("seed %d clean on pool: %v", seed, err)
				return false
			}
			return true
		}
		var dl *core.DeadlockError
		if !errors.As(err, &dl) {
			t.Logf("seed %d ring on pool: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: generated programs are mode-agnostic in outcome — the same
// seed completes cleanly under every owned-set representation.
func TestPropertyTrackingIndependent(t *testing.T) {
	check := func(seed int64) bool {
		prog := Generate(DefaultConfig(seed))
		for _, tr := range []core.OwnedTracking{core.TrackList, core.TrackCounter} {
			rt := core.NewRuntime(core.WithMode(core.Full), core.WithOwnedTracking(tr))
			if err := rt.Run(prog.Main()); err != nil {
				t.Logf("seed %d tracking %v: %v", seed, tr, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
