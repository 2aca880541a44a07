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
	want := 73
	if EnvDetector() == DetectGlobalLock {
		want = 75
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
