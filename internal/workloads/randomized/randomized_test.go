package randomized

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestRunsCleanInAllModes(t *testing.T) {
	cfg := Small()
	for _, mode := range testutil.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := core.NewRuntime(core.WithMode(mode))
			var got uint64
			testutil.MustSucceed(t, rt, func(tk *core.Task) error {
				var err error
				got, err = Run(tk, cfg)
				return err
			})
			if got != uint64(cfg.Tasks) {
				t.Fatalf("checksum %d, want %d", got, cfg.Tasks)
			}
		})
	}
}

func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size tree")
	}
	cfg := Default() // the paper's exact shape with lighter work
	cfg.Work = 0
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		_, err := Run(tk, cfg)
		return err
	})
	st := rt.Stats()
	if st.Tasks != 2535 {
		t.Fatalf("tasks = %d, want 2535", st.Tasks)
	}
}

func TestPromiseBudget(t *testing.T) {
	cfg := Small()
	rt := core.NewRuntime(core.WithMode(core.Full), core.WithEventCounting(true))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		_, err := Run(tk, cfg)
		return err
	})
	st := rt.Stats()
	if st.Sets != int64(cfg.Promises) {
		t.Fatalf("sets = %d, want %d (every promise fulfilled exactly once)", st.Sets, cfg.Promises)
	}
}

// TestPrepareIsRepeatable runs three preparations of one configuration:
// each generates the same program, so each run returns the task count.
func TestPrepareIsRepeatable(t *testing.T) {
	cfg := Small()
	for i := 0; i < 3; i++ {
		body, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		testutil.MustSucceed(t, core.NewRuntime(core.WithMode(core.Full)), func(tk *core.Task) (err error) {
			got, err = body(tk)
			return err
		})
		if got != uint64(cfg.Tasks) {
			t.Fatalf("run %d: checksum %d, want %d", i, got, cfg.Tasks)
		}
	}
}
