package sched_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/workloads/smithwaterman"
)

// TestElasticWavefront runs SmithWaterman, whose tile tasks block on
// their north and west neighbours, with every task on an Elastic pool:
// the wavefront must complete with the sequential reference's score.
func TestElasticWavefront(t *testing.T) {
	pool := sched.NewElastic(0)
	defer pool.Close()
	cfg := smithwaterman.Small()
	body, err := smithwaterman.Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	testutil.MustSucceed(t, core.NewRuntime(core.WithMode(core.Full), core.WithExecutor(pool)),
		func(tk *core.Task) (err error) {
			got, err = body(tk)
			return err
		})
	if want := smithwaterman.RunSequential(cfg); got != want {
		t.Fatalf("score %d, want %d", got, want)
	}
}
