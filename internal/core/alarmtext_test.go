package core

import (
	"errors"
	"runtime"
	"testing"
)

// The two halves of Listing 1's report under default names, as each
// task records them: t2 (task-2) closes the cycle and terminates owning
// q (promise-2); the root (main) then reads q's broken-promise error and
// terminates owning p (promise-1).
const (
	listing1AlarmT2 = "core: deadlock cycle of 2 task(s): task task-2 awaits promise-1 -> task main awaits promise-2 -> owned by task task-2\n" +
		"core: omitted set: task task-2 terminated owning unfulfilled promise(s): promise-2"
	listing1AlarmRoot = "core: broken promise promise-2: owner task task-2 terminated without fulfilling it: " +
		"core: deadlock cycle of 2 task(s): task task-2 awaits promise-1 -> task main awaits promise-2 -> owned by task task-2\n" +
		"core: omitted set: task main terminated owning unfulfilled promise(s): promise-1"
)

// listing1Default runs the paper's Listing 1 in Full mode with default
// task and promise names and returns Run's report. t2 starts its
// wait only once the root is parked on q, so t2's wait is the one that
// closes the cycle on every run.
func listing1Default() error {
	return NewRuntime(WithMode(Full)).Run(func(root *Task) error {
		p := NewPromise[int](root)
		q := NewPromise[int](root)
		if _, err := root.Async(func(t2 *Task) error {
			for q.s.wake.head.Load() == nil {
				runtime.Gosched()
			}
			if _, err := p.Get(t2); err != nil {
				return err
			}
			return q.Set(t2, 1)
		}, q); err != nil {
			return err
		}
		if _, err := q.Get(root); err != nil {
			return err
		}
		return p.Set(root, 1)
	})
}

// TestListing1AlarmText pins the alarm report byte for byte: the cycle
// with its blame, both omitted sets and the cascade. t2 records its own
// error before it breaks q, which wakes the root, so the cause always
// precedes the cascade.
func TestListing1AlarmText(t *testing.T) {
	err := listing1Default()
	if err == nil {
		t.Fatal("Listing 1 ran clean")
	}
	got := err.Error()
	if want := listing1AlarmT2 + "\n" + listing1AlarmRoot; got != want {
		t.Fatalf("alarm text (%d bytes):\n%s\nwant (%d bytes, cause first):\n%s", len(got), got, len(want), want)
	}
}

// TestListing1AlarmAllocs pins the allocations of that whole run —
// runtime, tasks, promises, the detector's alarm and the rendered
// report — so growth anywhere on the alarm path shows.
func TestListing1AlarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of Puts, so the hop log is reallocated")
	}
	// The global-lock detector adds its waits-for map (allocated at the
	// first wait) and that map's first entry.
	want := 23
	if EnvDetector() == DetectGlobalLock {
		want = 25
	}
	got := testing.AllocsPerRun(200, func() {
		if err := listing1Default(); err == nil {
			t.Fatal("Listing 1 ran clean")
		} else {
			_ = err.Error()
		}
	})
	if got > float64(want) {
		t.Fatalf("Listing-1 alarm run: %.0f allocs, want at most %d", got, want)
	}
}

// TestListing1AlarmRenderAllocs pins the allocations of rendering
// Listing 1's report alone: every alarm verdict sent over the front
// renders it once. The whole report, the cascade's repeated cycle and
// every default name included, renders into one builder.
func TestListing1AlarmRenderAllocs(t *testing.T) {
	err := listing1Default()
	if err == nil {
		t.Fatal("Listing 1 ran clean")
	}
	got := testing.AllocsPerRun(200, func() { _ = err.Error() })
	if want := 1; got > float64(want) {
		t.Fatalf("rendering Listing 1's report: %.0f allocs, want at most %d", got, want)
	}
}

// TestReportTextBranches pins the report texts Listing 1 does not reach:
// several labels, a nil cause and cycles of other
// lengths, as the fmt-based renderers wrote them.
func TestReportTextBranches(t *testing.T) {
	named := func(label string) AnyPromise { return &Promise[int]{s: pstate{label: label}} }
	for _, tc := range []struct {
		err  error
		want string
	}{
		{&OmittedSetError{taskName: "w", Promises: []AnyPromise{named("a"), named("b"), named("c")}},
			"core: omitted set: task w terminated owning unfulfilled promise(s): a, b, c"},
		{&BrokenPromiseError{promiseLabel: "p", taskName: "w"},
			"core: broken promise p: owner task w terminated without fulfilling it: <nil>"},
		{&DeadlockError{}, "core: deadlock cycle of 0 task(s): "},
		{&DeadlockError{Cycle: []CycleNode{
			{taskName: "a", promiseLabel: "p"}, {taskName: "b", promiseLabel: "q"}, {taskName: "c", promiseLabel: "r"},
		}}, "core: deadlock cycle of 3 task(s): task a awaits p -> task b awaits q -> task c awaits r -> owned by task a"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%T: got %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestListing1ReportParts: the report's entries are the cycle, t2's
// omitted set, the root's broken-promise error and the root's omitted
// set, in that order; errors.As finds each part, its cause included, and
// each default name renders when read.
func TestListing1ReportParts(t *testing.T) {
	err := listing1Default()
	var rep *Report
	if !errors.As(err, &rep) || len(rep.Unwrap()) != 4 {
		t.Fatalf("run error %T is not a four-entry report: %v", err, err)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Cycle) != 2 {
		t.Fatalf("no two-node cycle in %v", err)
	}
	if n := dl.Cycle[0]; n.TaskName() != "task-2" || n.PromiseLabel() != "promise-1" {
		t.Errorf("cycle starts at task %q awaiting %q, want task-2 awaiting promise-1", n.TaskName(), n.PromiseLabel())
	}
	if n := dl.Cycle[1]; n.TaskName() != "main" || n.PromiseLabel() != "promise-2" {
		t.Errorf("cycle continues at task %q awaiting %q, want main awaiting promise-2", n.TaskName(), n.PromiseLabel())
	}
	var bp *BrokenPromiseError
	if !errors.As(err, &bp) || bp.PromiseLabel() != "promise-2" || bp.TaskName() != "task-2" {
		t.Fatalf("broken promise %+v, want promise-2 leaked by task-2", bp)
	}
	if !errors.Is(bp, dl) {
		t.Error("the cascade does not name the cycle as its cause")
	}
	var blamed []string
	for _, e := range rep.Unwrap() {
		var om *OmittedSetError
		if errors.As(e, &om) {
			if len(om.Promises) != 1 {
				t.Fatalf("omitted set %v names %d promises, want 1", om, len(om.Promises))
			}
			blamed = append(blamed, om.TaskName()+":"+om.Promises[0].Label())
		}
	}
	if len(blamed) != 2 || blamed[0] != "task-2:promise-2" || blamed[1] != "main:promise-1" {
		t.Fatalf("omitted sets blame %q, want [task-2:promise-2 main:promise-1]", blamed)
	}
}

// TestWaitReportsOwnErrorAndOmittedSet: a task that fails while owning a
// promise records two report entries, and its Wait returns both, its
// own error first, with errors.Join's text.
func TestWaitReportsOwnErrorAndOmittedSet(t *testing.T) {
	boom := errors.New("boom")
	rt := NewRuntime(WithMode(Full))
	var child *Task
	err := rt.Run(func(root *Task) error {
		p := NewPromiseNamed[int](root, "owed")
		var err error
		child, err = root.AsyncNamed("debtor", func(*Task) error { return boom }, p)
		return err
	})
	if err == nil {
		t.Fatal("run reported nothing")
	}
	got := child.Wait()
	var om *OmittedSetError
	if !errors.Is(got, boom) || !errors.As(got, &om) || om.TaskName() != "debtor" {
		t.Fatalf("Wait = %v, want boom and debtor's omitted set", got)
	}
	if want := errors.Join(boom, om).Error(); got.Error() != want {
		t.Fatalf("Wait text %q, want %q", got.Error(), want)
	}
	if entries := rt.Errors(); len(entries) != 2 || entries[0] != boom || entries[1] != error(om) {
		t.Fatalf("report entries %v, want [boom, omitted set]", entries)
	}
}
