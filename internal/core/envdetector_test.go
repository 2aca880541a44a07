package core

import "testing"

// The DEADLOCK_DETECTOR environment variable redirects the default
// detector so CI can sweep the whole suite under the global-lock ablation
// without threading an option through every call site. An explicit
// WithDetector must still win.
func TestDetectorEnvDefault(t *testing.T) {
	t.Setenv("DEADLOCK_DETECTOR", "globallock")
	if got := NewRuntime().Detector(); got != DetectGlobalLock {
		t.Fatalf("default detector = %v, want globallock from env", got)
	}
	if got := NewRuntime(WithDetector(DetectLockFree)).Detector(); got != DetectLockFree {
		t.Fatalf("explicit WithDetector overridden by env: %v", got)
	}

	t.Setenv("DEADLOCK_DETECTOR", "lockfree")
	if got := NewRuntime().Detector(); got != DetectLockFree {
		t.Fatalf("default detector = %v, want lockfree", got)
	}

	t.Setenv("DEADLOCK_DETECTOR", "nonsense")
	if got := NewRuntime().Detector(); got != DetectLockFree {
		t.Fatalf("unknown env value must fall back to lockfree, got %v", got)
	}

	// The env-selected global-lock detector must actually be wired up:
	// a self-wait in Full mode goes through the comparator's graph, which
	// makes its map on that first wait.
	t.Setenv("DEADLOCK_DETECTOR", "globallock")
	rt := NewRuntime(WithMode(Full))
	err := rt.Run(func(root *Task) error {
		p := NewPromise[int](root)
		if _, err := p.Get(root); err == nil {
			t.Error("self-wait not reported as a deadlock")
		}
		return p.Set(root, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.gdet.waiting == nil {
		t.Fatal("the wait never reached the global detector for env-selected globallock")
	}
}
