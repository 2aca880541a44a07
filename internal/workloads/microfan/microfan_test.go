package microfan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

// TestSumMatchesSequentialAllModes checks the reduction against the
// sequential reference in every mode, at the small configuration and at
// a wider, shallower one.
func TestSumMatchesSequentialAllModes(t *testing.T) {
	cfgs := []Config{Small(), {Rounds: 6, Width: 32, Work: 32}}
	for _, mode := range testutil.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			for _, cfg := range cfgs {
				rt := core.NewRuntime(core.WithMode(mode))
				var got uint64
				testutil.MustSucceed(t, rt, func(tk *core.Task) error {
					var err error
					got, err = runPrepared(tk, cfg)
					return err
				})
				if want := RunSequential(cfg); got != want {
					t.Fatalf("%+v: sum = %d, want %d", cfg, got, want)
				}
			}
		})
	}
}

// TestPooledRuntime reuses one Full-mode runtime for several runs of the
// wide configuration, as a pooled runtime would be, to catch state that
// leaks from one run into the next (task and error accounting).
func TestPooledRuntime(t *testing.T) {
	cfg := Config{Rounds: 6, Width: 32, Work: 32}
	want := RunSequential(cfg)
	rt := core.NewRuntime(core.WithMode(core.Full))
	for i := 0; i < 3; i++ {
		var got uint64
		testutil.MustSucceed(t, rt, func(tk *core.Task) error {
			var err error
			got, err = runPrepared(tk, cfg)
			return err
		})
		if got != want {
			t.Fatalf("run %d: sum = %d, want %d", i, got, want)
		}
	}
}

// runPrepared prepares cfg and runs the body under tk.
func runPrepared(tk *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(tk)
}
