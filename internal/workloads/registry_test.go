package workloads

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestRegistryHasTable1Order(t *testing.T) {
	want := []string{"Conway", "Heat", "QSort", "Randomized", "Sieve",
		"SmithWaterman", "Strassen", "StreamCluster", "StreamCluster2", "MicroFan",
		"PPSim", "PPG"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d entries, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.Name != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Sieve"); !ok {
		t.Fatal("Sieve missing")
	}
	if _, ok := ByName("NoSuch"); ok {
		t.Fatal("phantom benchmark")
	}
}

func TestParseScale(t *testing.T) {
	if ParseScale("small") != ScaleSmall || ParseScale("paper") != ScalePaper || ParseScale("anything") != ScaleDefault {
		t.Fatal("scale parsing")
	}
}

// runEntry prepares e at scale s and runs the body under rt, returning
// its checksum.
func runEntry(t *testing.T, rt *core.Runtime, e Entry, s Scale) uint64 {
	t.Helper()
	body, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	testutil.MustSucceed(t, rt, func(tk *core.Task) (err error) {
		sum, err = body(tk)
		return err
	})
	return sum
}

func TestAllSmallProgramsRunCleanVerified(t *testing.T) {
	// Every registered benchmark must complete without alarms at small
	// scale, unverified and under the Full verifier with either detector,
	// and return its sequential reference — or, without one, the same
	// checksum in every configuration: the end-to-end sanity the whole
	// Table-1 pipeline depends on.
	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"unverified", []core.Option{core.WithMode(core.Unverified)}},
		{"full-lockfree", []core.Option{core.WithMode(core.Full), core.WithDetector(core.DetectLockFree)}},
		{"full-globallock", []core.Option{core.WithMode(core.Full), core.WithDetector(core.DetectGlobalLock)}},
	}
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			var want uint64
			if e.Want != nil {
				want = e.Want(ScaleSmall)()
			}
			for i, c := range configs {
				t.Run(c.label, func(t *testing.T) {
					got := runEntry(t, core.NewRuntime(c.opts...), e, ScaleSmall)
					if e.Want == nil && i == 0 {
						want = got
					}
					if got != want {
						t.Fatalf("checksum %#x, want %#x", got, want)
					}
				})
			}
		})
	}
}

func TestProgramsAreReusable(t *testing.T) {
	// Two preparations of one entry are independent runs with one answer.
	for _, e := range All() {
		rt := core.NewRuntime(core.WithMode(core.Unverified))
		if a, b := runEntry(t, rt, e, ScaleSmall), runEntry(t, rt, e, ScaleSmall); a != b {
			t.Fatalf("%s: two preparations returned %#x and %#x", e.Name, a, b)
		}
	}
}

// TestSessionPreparesInTheBody pins where Entry.Session prepares: not
// when the session body is made (a front makes it on a connection's read
// loop), but when it runs, on the session's own task.
func TestSessionPreparesInTheBody(t *testing.T) {
	var prepared atomic.Int32
	e := Entry{Name: "Counted", Prepare: func(Scale) (Body, error) {
		prepared.Add(1)
		return func(*core.Task) (uint64, error) { return 0, nil }, nil
	}}
	body := e.Session(ScaleDefault)
	if n := prepared.Load(); n != 0 {
		t.Fatalf("making the session body prepared %d times, want 0", n)
	}
	testutil.MustSucceed(t, core.NewRuntime(), body)
	if n := prepared.Load(); n != 1 {
		t.Fatalf("running the session body prepared %d times, want 1", n)
	}
}
