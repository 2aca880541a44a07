package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestWaitPathEveryConfiguration takes one blocking Get out of each exit
// of the wait path — woken by Set, ctx-cancelled while parked, and (Full
// only) refused by the detector — under every verification configuration.
// Each exit must leave exactly one block/wake pair for the wait, with the
// exit's wake detail, the offline verdict the live run had, and, in Full
// mode, no waits-for edge behind: Task.waitingOn is nil and the global
// detector's map no longer holds the task.
func TestWaitPathEveryConfiguration(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"unverified", []Option{WithMode(Unverified)}},
		{"ownership", []Option{WithMode(Ownership)}},
		{"full-lockfree", []Option{WithMode(Full), WithDetector(DetectLockFree)}},
		{"full-globallock", []Option{WithMode(Full), WithDetector(DetectGlobalLock)}},
	}
	outcomes := []struct {
		name, detail string
	}{
		{"woken", ""},
		{"cancel", "cancel"},
		{"alarm", "alarm"},
	}
	for _, cfg := range configs {
		for _, out := range outcomes {
			rt, mem := memTraced(0, cfg.opts...)
			if out.detail == "alarm" && rt.mode != Full {
				continue // only the detector refuses a wait
			}
			t.Run(cfg.name+"/"+out.name, func(t *testing.T) {
				var rootID, pID uint64
				err := run(t, rt, func(root *Task) error {
					rootID = root.id
					p := NewPromiseNamed[int](root, "p")
					pID = p.s.id
					// parked reports that root's waiter record is linked in
					// p's gate, i.e. the wait is committed to blocking.
					parked := func() {
						for p.s.wake.head.Load() == nil {
							runtime.Gosched()
						}
					}
					switch out.detail {
					case "":
						if _, e := root.Async(func(c *Task) error {
							parked()
							return p.Set(c, 1)
						}, p); e != nil {
							return e
						}
						v, e := p.Get(root)
						if e != nil || v != 1 {
							return fmt.Errorf("Get = %d, %v; want 1, nil", v, e)
						}
					case "cancel":
						release := make(chan struct{})
						if _, e := root.Async(func(c *Task) error {
							<-release
							return p.Set(c, 1)
						}, p); e != nil {
							return e
						}
						ctx, cancel := context.WithCancel(context.Background())
						go func() { parked(); cancel() }()
						_, e := p.GetContext(ctx, root)
						close(release)
						var ce *CanceledError
						if !errors.As(e, &ce) {
							return fmt.Errorf("GetContext = %v, want CanceledError", e)
						}
					case "alarm":
						// root owns p, so waiting on it is a one-task cycle.
						_, e := p.Get(root)
						var dl *DeadlockError
						if !errors.As(e, &dl) {
							return fmt.Errorf("Get = %v, want DeadlockError", e)
						}
						if e := p.Set(root, 0); e != nil {
							return e
						}
					}
					if rt.mode == Full {
						if w := root.waitingOn.Load(); w != nil {
							return fmt.Errorf("waitingOn = promise %d after the wait, want nil", w.id)
						}
						rt.gdet.mu.Lock()
						_, held := rt.gdet.waiting[root]
						rt.gdet.mu.Unlock()
						if held {
							return errors.New("global detector still holds the task after the wait")
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				evs := mem.Snapshot()
				var blocks, wakes []Event
				for _, e := range evs {
					if e.TaskID != rootID || e.PromiseID != pID {
						continue
					}
					switch e.Kind {
					case EvBlock:
						blocks = append(blocks, e)
					case EvWake:
						wakes = append(wakes, e)
					}
				}
				if len(blocks) != 1 || len(wakes) != 1 {
					t.Fatalf("%d block and %d wake events for the wait, want 1 and 1", len(blocks), len(wakes))
				}
				if wakes[0].Detail != out.detail || wakes[0].Seq < blocks[0].Seq {
					t.Fatalf("wake #%d %q after block #%d, want detail %q after the block",
						wakes[0].Seq, wakes[0].Detail, blocks[0].Seq, out.detail)
				}

				rep := trace.Verify(evs)
				if out.detail == "alarm" {
					if !rep.Consistent() || !rep.Terminated || rep.Deadlocks != 1 || len(rep.Alarms) != 1 {
						t.Fatalf("trace: %s, want one re-verified deadlock alarm\nproblems: %v", rep.Summary(), rep.Problems)
					}
				} else if !rep.Clean() {
					t.Fatalf("trace: %s, want clean\nproblems: %v", rep.Summary(), rep.Problems)
				}
			})
		}
	}
}
