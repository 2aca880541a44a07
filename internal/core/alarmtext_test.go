package core

import (
	"runtime"
	"testing"
)

// The two halves of Listing 1's joined error under default names, as
// each task records it: t2 (task-2) closes the cycle and terminates
// owning q (promise-2); the root (main) then reads q's broken-promise
// error and terminates owning p (promise-1).
const (
	listing1AlarmT2 = "core: deadlock cycle of 2 task(s): task task-2 awaits promise-1 -> task main awaits promise-2 -> owned by task task-2\n" +
		"core: omitted set: task task-2 terminated owning unfulfilled promise(s): promise-2"
	listing1AlarmRoot = "core: broken promise promise-2: owner task task-2 terminated without fulfilling it: " +
		"core: deadlock cycle of 2 task(s): task task-2 awaits promise-1 -> task main awaits promise-2 -> owned by task task-2\n" +
		"core: omitted set: task main terminated owning unfulfilled promise(s): promise-1"
)

// listing1Default runs the paper's Listing 1 in Full mode with default
// task and promise names and returns Run's joined error. t2 starts its
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
	want := 49
	if EnvDetector() == DetectGlobalLock {
		want = 51
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
// Listing 1's joined report alone: every alarm verdict sent over the
// front renders it once. Each report renders into one builder; the
// rest are errors.Join's buffers and the default omitted-set labels.
func TestListing1AlarmRenderAllocs(t *testing.T) {
	err := listing1Default()
	if err == nil {
		t.Fatal("Listing 1 ran clean")
	}
	got := testing.AllocsPerRun(200, func() { _ = err.Error() })
	if want := 13; got > float64(want) {
		t.Fatalf("rendering Listing 1's report: %.0f allocs, want at most %d", got, want)
	}
}

// TestReportTextBranches pins the report texts Listing 1 does not reach:
// a counted omitted set, several labels, a nil cause and cycles of other
// lengths, as the fmt-based renderers wrote them.
func TestReportTextBranches(t *testing.T) {
	named := func(label string) AnyPromise { return &Promise[int]{s: pstate{label: label}} }
	for _, tc := range []struct {
		err  error
		want string
	}{
		{&OmittedSetError{TaskName: "w", Count: 3},
			"core: omitted set: task w terminated owning 3 unfulfilled promise(s)"},
		{&OmittedSetError{TaskName: "w", Promises: []AnyPromise{named("a"), named("b"), named("c")}},
			"core: omitted set: task w terminated owning unfulfilled promise(s): a, b, c"},
		{&BrokenPromiseError{PromiseLabel: "p", TaskName: "w"},
			"core: broken promise p: owner task w terminated without fulfilling it: <nil>"},
		{&DeadlockError{}, "core: deadlock cycle of 0 task(s): "},
		{&DeadlockError{Cycle: []CycleNode{
			{TaskName: "a", PromiseLabel: "p"}, {TaskName: "b", PromiseLabel: "q"}, {TaskName: "c", PromiseLabel: "r"},
		}}, "core: deadlock cycle of 3 task(s): task a awaits p -> task b awaits q -> task c awaits r -> owned by task a"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%T: got %q, want %q", tc.err, got, tc.want)
		}
	}
}
