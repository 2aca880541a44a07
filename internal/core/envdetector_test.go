package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// ParseMode and ParseDetector are the inverses of String, and every
// command-line flag and trace field naming a mode or detector goes
// through them, so a name means the same configuration everywhere.
func TestParseModeAndDetector(t *testing.T) {
	for _, m := range []Mode{Unverified, Ownership, Full} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, nil", m.String(), got, err, m)
		}
	}
	for _, k := range []DetectorKind{DetectLockFree, DetectGlobalLock} {
		if got, err := ParseDetector(k.String()); err != nil || got != k {
			t.Errorf("ParseDetector(%q) = %v, %v; want %v, nil", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"", "Full", "unknown", "lockfree", "full "} {
		_, err := ParseMode(bad)
		if want := `unknown mode "` + bad + `"`; err == nil || err.Error() != want {
			t.Errorf("ParseMode(%q) error = %v, want %s", bad, err, want)
		}
	}
	for _, bad := range []string{"", "LockFree", "unknown", "full", "global-lock"} {
		_, err := ParseDetector(bad)
		if want := `unknown detector "` + bad + `"`; err == nil || err.Error() != want {
			t.Errorf("ParseDetector(%q) error = %v, want %s", bad, err, want)
		}
	}
}

// The DEADLOCK_DETECTOR environment variable redirects the default
// detector so CI can sweep the whole suite under the global-lock ablation
// without threading an option through every call site. An explicit
// WithDetector must still win.
func TestDetectorEnvDefault(t *testing.T) {
	for _, c := range []struct {
		env  string
		want DetectorKind
	}{
		{"globallock", DetectGlobalLock},
		{"lockfree", DetectLockFree},
		{"", DetectLockFree},
		{"nonsense", DetectLockFree}, // an unknown value falls back
	} {
		t.Setenv("DEADLOCK_DETECTOR", c.env)
		if got := EnvDetector(); got != c.want {
			t.Errorf("DEADLOCK_DETECTOR=%q: EnvDetector() = %v, want %v", c.env, got, c.want)
		}
		if got := NewRuntime().Detector(); got != c.want {
			t.Errorf("DEADLOCK_DETECTOR=%q: default detector = %v, want %v", c.env, got, c.want)
		}
		if got := NewRuntime(WithDetector(DetectLockFree)).Detector(); got != DetectLockFree {
			t.Errorf("DEADLOCK_DETECTOR=%q: explicit WithDetector overridden: %v", c.env, got)
		}
	}
}

// TestGlobalLockWaitTakesTheMutex checks that a Full-mode wait under the
// global-lock comparator, chosen by option or by the environment, runs
// its traversal under the comparator's mutex: while the test holds
// gdet.mu the waiter cannot publish its waits-for edge, and once the
// test releases it the edge appears.
func TestGlobalLockWaitTakesTheMutex(t *testing.T) {
	for _, c := range []struct {
		name string
		env  string
		opts []Option
	}{
		{"option", "", []Option{WithMode(Full), WithDetector(DetectGlobalLock)}},
		{"env", "globallock", []Option{WithMode(Full)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv("DEADLOCK_DETECTOR", c.env)
			rt := NewRuntime(c.opts...)
			err := run(t, rt, func(root *Task) error {
				p := NewPromiseNamed[int](root, "p")
				rt.gdet.mu.Lock()
				waiter, err := root.AsyncNamed("waiter", func(w *Task) error {
					_, err := p.Get(w)
					return err
				})
				if err != nil {
					rt.gdet.mu.Unlock()
					return err
				}
				for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
					if w := waiter.waitingOn.Load(); w != nil {
						rt.gdet.mu.Unlock()
						return fmt.Errorf("waiter published its edge to promise %d while the comparator's mutex was held", w.id)
					}
					runtime.Gosched()
				}
				rt.gdet.mu.Unlock()
				for waiter.waitingOn.Load() != &p.s {
					runtime.Gosched()
				}
				return p.Set(root, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
