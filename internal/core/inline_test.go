package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestInlineRunsToCompletion: a non-blocking body executes synchronously
// on the caller's goroutine — it has completed before AsyncInline
// returns, under every mode.
func TestInlineRunsToCompletion(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromise[int](tk)
				ran := false // same goroutine when inline: a plain bool suffices
				if _, e := tk.AsyncInline(func(c *Task) error {
					ran = true
					return p.Set(c, 7)
				}, p); e != nil {
					return e
				}
				if !ran {
					return errors.New("body did not run during AsyncInline")
				}
				v, e := p.Get(tk)
				if e != nil {
					return e
				}
				if v != 7 {
					return fmt.Errorf("got %d, want 7", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInlineMigratesCleanBlock: a body whose FIRST action is a wait that
// cannot be satisfied while the caller is captive must abort the inline
// attempt and restart on its own goroutine — the body runs exactly twice
// and the program completes.
func TestInlineMigratesCleanBlock(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			var entries atomic.Int32
			err := run(t, rt, func(tk *Task) error {
				p := NewPromise[int](tk)
				r := NewPromise[int](tk)
				if _, e := tk.AsyncInline(func(c *Task) error {
					entries.Add(1)
					v, e := p.Get(c) // clean block: p is only settable by the captive caller
					if e != nil {
						return e
					}
					return r.Set(c, v+1)
				}, r); e != nil {
					return e
				}
				if e := p.Set(tk, 41); e != nil {
					return e
				}
				v, e := r.Get(tk)
				if e != nil {
					return e
				}
				if v != 42 {
					return fmt.Errorf("got %d, want 42", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := entries.Load(); n != 2 {
				t.Fatalf("body ran %d times, want 2 (inline attempt + scheduled restart)", n)
			}
		})
	}
}

// TestInlineDirtyCommitCompletes: a body that goes dirty (creates a
// promise) and then blocks must commit the wait on the borrowed
// goroutine — no restart — and complete once a scheduled sibling
// fulfils the awaited promise.
func TestInlineDirtyCommitCompletes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			var entries atomic.Int32
			err := run(t, rt, func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "p")
				q := NewPromiseNamed[int](tk, "q")
				if _, e := tk.AsyncNamed("setter", func(c *Task) error {
					return p.Set(c, 10)
				}, p); e != nil {
					return e
				}
				if _, e := tk.AsyncInlineNamed("child", func(c *Task) error {
					entries.Add(1)
					inner := NewPromise[int](c) // dirty: the prefix is no longer restartable
					v, e := p.Get(c)
					if e != nil {
						return e
					}
					if e := inner.Set(c, v); e != nil {
						return e
					}
					w, e := inner.Get(c)
					if e != nil {
						return e
					}
					return q.Set(c, w*2)
				}, q); e != nil {
					return e
				}
				v, e := q.Get(tk)
				if e != nil {
					return e
				}
				if v != 20 {
					return fmt.Errorf("got %d, want 20", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := entries.Load(); n != 1 {
				t.Fatalf("dirty body ran %d times, want exactly 1", n)
			}
		})
	}
}

// TestInlineDirtyHostEdgeDeadlock is the precision obligation for the
// committed wait: a dirty inline child blocking on a promise its HOST
// owns is a genuine deadlock of this execution (the host's goroutine is
// captive), and the detector must alarm with the precise one-hop cycle
// [main awaits p] instead of hanging — under both detectors.
func TestInlineDirtyHostEdgeDeadlock(t *testing.T) {
	for _, det := range detectorConfigs() {
		t.Run(det.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(Full), WithDetector(det))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "p")
				q := NewPromiseNamed[int](tk, "q")
				if _, e := tk.AsyncInlineNamed("child", func(c *Task) error {
					_ = NewPromise[int](c) // dirty: forces the wait to commit
					_, e := p.Get(c)       // p is owned by the captive host: deadlock
					if e == nil {
						return errors.New("Get on host-owned promise returned nil")
					}
					if se := q.Set(c, 1); se != nil {
						return se
					}
					return e
				}, q); e != nil {
					return e
				}
				// The child completed inline (with the deadlock error); the
				// caller is released and can still use its promise.
				if e := p.Set(tk, 1); e != nil {
					return e
				}
				if _, e := q.Get(tk); e != nil {
					return e
				}
				return nil
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if len(dl.Cycle) != 1 {
				t.Fatalf("cycle length %d, want 1: %v", len(dl.Cycle), dl)
			}
			if dl.Cycle[0].TaskName != "main" || dl.Cycle[0].PromiseLabel != "p" {
				t.Fatalf("cycle = %v, want [main awaits p]", dl.Cycle)
			}
		})
	}
}

// TestInlineTransitiveDeadlock: the captive host participates in a cycle
// THROUGH another scheduled task — main is captive under the child's wait
// on p, p is owned by sib, sib waits on g, g is owned by main. Whichever
// side publishes its edge last must alarm with the full two-hop cycle
// {main awaits p, sib awaits g}.
func TestInlineTransitiveDeadlock(t *testing.T) {
	for _, det := range detectorConfigs() {
		t.Run(det.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(Full), WithDetector(det))
			err := run(t, rt, func(tk *Task) error {
				g := NewPromiseNamed[int](tk, "g")
				p := NewPromiseNamed[int](tk, "p")
				q := NewPromiseNamed[int](tk, "q")
				if _, e := tk.AsyncNamed("sib", func(c *Task) error {
					v, e := g.Get(c)
					if e != nil {
						return e
					}
					return p.Set(c, v)
				}, p); e != nil {
					return e
				}
				if _, e := tk.AsyncInlineNamed("child", func(c *Task) error {
					_ = NewPromise[int](c) // dirty
					_, e := p.Get(c)
					if se := q.Set(c, 1); se != nil {
						return se
					}
					return e
				}, q); e != nil {
					return e
				}
				// Released only after the cycle alarmed somewhere. g has no
				// waiter left (sib either alarmed or died of the cascade).
				_ = g.Set(tk, 1)
				_, _ = q.Get(tk)
				return nil
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if len(dl.Cycle) != 2 {
				t.Fatalf("cycle length %d, want 2: %v", len(dl.Cycle), dl)
			}
			waits := map[string]string{}
			for _, n := range dl.Cycle {
				waits[n.TaskName] = n.PromiseLabel
			}
			if waits["main"] != "p" || waits["sib"] != "g" {
				t.Fatalf("cycle = %v, want {main awaits p, sib awaits g}", dl.Cycle)
			}
		})
	}
}

// TestInlineRecoveredSentinelFails: a body that recover()s the migration
// sentinel and returns normally can be neither completed (its wait never
// happened) nor restarted — it must fail with the dedicated error.
func TestInlineRecoveredSentinelFails(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.AsyncInline(func(c *Task) error {
			defer func() { recover() }() // swallows the migration sentinel
			_, _ = p.Get(c)
			return nil
		}); e != nil {
			return e
		}
		return p.Set(tk, 1)
	})
	if !errors.Is(err, errInlineRecovered) {
		t.Fatalf("err = %v, want errInlineRecovered", err)
	}
}

// TestInlinePoisonedAfterRecoverFails: worse than swallowing — the body
// recovers the sentinel and performs MORE promise operations. The task is
// poisoned and must fail, and the post-recovery operations must not leak
// broken state into the caller.
func TestInlinePoisonedAfterRecoverFails(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromise[int](tk)
		if _, e := tk.AsyncInline(func(c *Task) error {
			func() {
				defer func() { recover() }()
				_, _ = p.Get(c)
			}()
			q := NewPromise[int](c) // poison: operation after the abort
			_ = q.Set(c, 1)
			return nil
		}); e != nil {
			return e
		}
		return p.Set(tk, 1)
	})
	if !errors.Is(err, errInlineRecovered) {
		t.Fatalf("err = %v, want errInlineRecovered", err)
	}
}

// TestInlineDepthCapFallsBack: nesting inline spawns past maxInlineDepth
// degrades to scheduled spawns instead of piling unbounded frames on one
// goroutine — the chain still completes end to end.
func TestInlineDepthCapFallsBack(t *testing.T) {
	const depth = 3 * maxInlineDepth
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(tk *Task) error {
				out := NewPromise[int](tk)
				var spawn func(c *Task, n int, out *Promise[int]) error
				spawn = func(c *Task, n int, out *Promise[int]) error {
					if n == 0 {
						return out.Set(c, depth)
					}
					_, e := c.AsyncInline(func(g *Task) error {
						return spawn(g, n-1, out)
					}, out)
					return e
				}
				if e := spawn(tk, depth, out); e != nil {
					return e
				}
				v, e := out.Get(tk)
				if e != nil {
					return e
				}
				if v != depth {
					return fmt.Errorf("got %d, want %d", v, depth)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWithInlineSpawnRoutesAsync: the runtime-wide option redirects plain
// Async through the inline path.
func TestWithInlineSpawnRoutesAsync(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode), WithInlineSpawn(true))
			err := run(t, rt, func(tk *Task) error {
				p := NewPromise[int](tk)
				var ran atomic.Bool
				if _, e := tk.Async(func(c *Task) error {
					ran.Store(true)
					return p.Set(c, 1)
				}, p); e != nil {
					return e
				}
				if !ran.Load() {
					return errors.New("Async under WithInlineSpawn did not run inline")
				}
				_, e := p.Get(tk)
				return e
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInlineCancelWithdrawsHostEdges: a committed inline wait abandoned
// by context cancellation must withdraw the child's edge AND every host
// edge, closing each trace block with a "cancel" wake — verified against
// the captured stream under both detectors.
func TestInlineCancelWithdrawsHostEdges(t *testing.T) {
	for _, det := range detectorConfigs() {
		t.Run(det.String(), func(t *testing.T) {
			mem := trace.NewMemSink(0)
			rt := NewRuntime(WithMode(Full), WithDetector(det), TraceTo(mem))
			release := make(chan struct{})
			err := run(t, rt, func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "slow")
				q := NewPromiseNamed[int](tk, "q")
				if _, e := tk.AsyncNamed("setter", func(c *Task) error {
					<-release
					return p.Set(c, 1)
				}, p); e != nil {
					return e
				}
				if _, e := tk.AsyncInlineNamed("child", func(c *Task) error {
					inner := NewPromise[int](c) // dirty: the wait below commits
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
					defer cancel()
					_, e := p.GetContext(ctx, c)
					var ce *CanceledError
					if !errors.As(e, &ce) {
						return fmt.Errorf("GetContext = %v, want CanceledError", e)
					}
					if se := inner.Set(c, 0); se != nil {
						return se
					}
					return q.Set(c, 1)
				}, q); e != nil {
					return e
				}
				close(release)
				if _, e := q.Get(tk); e != nil {
					return e
				}
				_, e := p.Get(tk)
				return e
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.TraceClose(); err != nil {
				t.Fatal(err)
			}
			evs := mem.Snapshot()
			rep := trace.Verify(evs)
			if !rep.Clean() {
				t.Fatalf("trace not clean: %s", rep.Summary())
			}
			var blocks, cancels int
			for _, e := range evs {
				if e.PromiseLabel != "slow" {
					continue
				}
				switch e.Kind {
				case trace.KindBlock:
					if e.TaskName == "child" || (e.TaskName == "main" && e.Detail == "inline") {
						blocks++
					}
				case trace.KindWake:
					if e.Detail == "cancel" {
						cancels++
					}
				}
			}
			if blocks != 2 || cancels != 2 {
				t.Fatalf("child+host blocks = %d, cancel wakes = %d; want 2 and 2", blocks, cancels)
			}
		})
	}
}

// --- Differential detector-precision suite -------------------------------
//
// The ISSUE's hard obligation: detector verdicts, blame, and trace
// consistency must be IDENTICAL whether a spawn executes inline or
// scheduled. Block/wake interleavings are schedule-dependent in racy
// programs, so the differential comparison uses the deterministic
// observables: the classified error set (deadlock cycles as sorted
// task->promise sets, ownership blame by task and promise name) and
// offline trace verification.

// spawnFn abstracts the spawn path under test.
type spawnFn func(t *Task, name string, f TaskFunc, moved ...Movable) (*Task, error)

func inlineSpawner(t *Task, name string, f TaskFunc, moved ...Movable) (*Task, error) {
	return t.AsyncInlineNamed(name, f, moved...)
}

func schedSpawner(t *Task, name string, f TaskFunc, moved ...Movable) (*Task, error) {
	return t.AsyncNamed(name, f, moved...)
}

// classifyVerdict reduces a run error to a canonical, schedule-independent
// description of every policy/detector verdict it carries.
func classifyVerdict(err error) string {
	if err == nil {
		return "ok"
	}
	var parts []string
	var dl *DeadlockError
	if errors.As(err, &dl) {
		hops := make([]string, 0, len(dl.Cycle))
		for _, n := range dl.Cycle {
			hops = append(hops, n.TaskName+"->"+n.PromiseLabel)
		}
		sort.Strings(hops)
		parts = append(parts, "deadlock{"+strings.Join(hops, ",")+"}")
	}
	var om *OmittedSetError
	if errors.As(err, &om) {
		labels := make([]string, 0, len(om.Promises))
		for _, p := range om.Promises {
			labels = append(labels, p.Label())
		}
		sort.Strings(labels)
		parts = append(parts, fmt.Sprintf("omitted{%s:%s}", om.TaskName, strings.Join(labels, ",")))
	}
	var ds *DoubleSetError
	if errors.As(err, &ds) {
		parts = append(parts, fmt.Sprintf("double{%s:%s}", ds.TaskName, ds.PromiseLabel))
	}
	var ow *OwnershipError
	if errors.As(err, &ow) {
		parts = append(parts, fmt.Sprintf("ownership{%s %s:%s}", ow.Op, ow.TaskName, ow.PromiseLabel))
	}
	var bp *BrokenPromiseError
	if errors.As(err, &bp) {
		parts = append(parts, "broken{"+bp.PromiseLabel+"}")
	}
	if len(parts) == 0 {
		return "error{" + err.Error() + "}"
	}
	sort.Strings(parts)
	return strings.Join(parts, "+")
}

// differentialPrograms are the verdict-bearing shapes. Each is written so
// the inline execution is well-defined: children either never block or
// block CLEAN first (migrating to a scheduled goroutine), so the verdict
// does not depend on the spawn path — which is exactly what the test
// asserts.
func differentialPrograms() []struct {
	name string
	prog func(spawn spawnFn) TaskFunc
} {
	return []struct {
		name string
		prog func(spawn spawnFn) TaskFunc
	}{
		{"clean-fanout", func(spawn spawnFn) TaskFunc {
			return func(tk *Task) error {
				const n = 4
				ps := make([]*Promise[int], n)
				for i := range ps {
					ps[i] = NewPromiseNamed[int](tk, fmt.Sprintf("p%d", i))
				}
				for i := range ps {
					i := i
					if _, e := spawn(tk, fmt.Sprintf("w%d", i), func(c *Task) error {
						return ps[i].Set(c, i)
					}, ps[i]); e != nil {
						return e
					}
				}
				for i, p := range ps {
					v, e := p.Get(tk)
					if e != nil {
						return e
					}
					if v != i {
						return fmt.Errorf("p%d = %d", i, v)
					}
				}
				return nil
			}
		}},
		{"omitted-set", func(spawn spawnFn) TaskFunc {
			return func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "leaked")
				if _, e := spawn(tk, "leaker", func(c *Task) error {
					return nil // takes ownership, never sets
				}, p); e != nil {
					return e
				}
				_, e := p.Get(tk)
				return e
			}
		}},
		{"double-set", func(spawn spawnFn) TaskFunc {
			return func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "twice")
				if _, e := spawn(tk, "setter", func(c *Task) error {
					if e := p.Set(c, 1); e != nil {
						return e
					}
					return p.Set(c, 2)
				}, p); e != nil {
					return e
				}
				_, e := p.Get(tk)
				return e
			}
		}},
		{"set-without-ownership", func(spawn spawnFn) TaskFunc {
			return func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "mine")
				done := NewPromiseNamed[int](tk, "done")
				if _, e := spawn(tk, "thief", func(c *Task) error {
					se := p.Set(c, 99) // p was never moved to the child
					if e := done.Set(c, 1); e != nil {
						return e
					}
					return se
				}, done); e != nil {
					return e
				}
				// Join before the legitimate Set so the thief's verdict is
				// deterministically "set without ownership", never a racy
				// double-set against an already-fulfilled promise.
				if _, e := done.Get(tk); e != nil {
					return e
				}
				return p.Set(tk, 1)
			}
		}},
		{"move-without-ownership", func(spawn spawnFn) TaskFunc {
			return func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "stolen")
				if _, e := spawn(tk, "mover", func(c *Task) error {
					// The child tries to move a promise it does not own.
					_, e := c.AsyncNamed("inner", func(g *Task) error {
						return nil
					}, p)
					return e
				}); e != nil {
					return e
				}
				return p.Set(tk, 1)
			}
		}},
		{"deadlock-cycle", func(spawn spawnFn) TaskFunc {
			return func(tk *Task) error {
				p := NewPromiseNamed[int](tk, "p")
				q := NewPromiseNamed[int](tk, "q")
				if _, e := spawn(tk, "a", func(c *Task) error {
					// First action is a clean block: under inline spawn this
					// migrates, so the cycle shape is identical to scheduled.
					v, e := p.Get(c)
					if e != nil {
						return e
					}
					return q.Set(c, v)
				}, q); e != nil {
					return e
				}
				_, e := q.Get(tk) // main awaits q; a awaits p; p owned by main
				if e == nil {
					return errors.New("cycle-closing Get returned nil")
				}
				_ = p.Set(tk, 1)
				return e
			}
		}},
	}
}

// TestInlineDifferentialVerdicts runs every differential program both
// inline and scheduled, under Ownership and under Full with both
// detectors, and requires the classified verdicts to be identical.
func TestInlineDifferentialVerdicts(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"ownership", []Option{WithMode(Ownership)}},
		{"full-lockfree", []Option{WithMode(Full), WithDetector(DetectLockFree)}},
		{"full-globallock", []Option{WithMode(Full), WithDetector(DetectGlobalLock)}},
	}
	for _, tc := range differentialPrograms() {
		for _, cfg := range configs {
			if tc.name == "deadlock-cycle" && cfg.name == "ownership" {
				continue // the cycle hangs without a detector (Listing 1)
			}
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				sched := classifyVerdict(run(t, NewRuntime(cfg.opts...), tc.prog(schedSpawner)))
				inline := classifyVerdict(run(t, NewRuntime(cfg.opts...), tc.prog(inlineSpawner)))
				if sched != inline {
					t.Fatalf("verdicts diverge:\n  scheduled: %s\n  inline:    %s", sched, inline)
				}
				if sched == "ok" && tc.name != "clean-fanout" {
					t.Fatalf("program %s produced no verdict at all", tc.name)
				}
			})
		}
	}
}

// TestInlineDifferentialTrace captures the deadlock-cycle program's trace
// under both spawn paths and requires (a) both streams re-verify offline
// with exactly one deadlock, (b) identical block multisets by
// (task, promise) name, and (c) exactly one "alarm" wake each.
func TestInlineDifferentialTrace(t *testing.T) {
	capture := func(spawn spawnFn) ([]trace.Event, *trace.Report) {
		t.Helper()
		mem := trace.NewMemSink(0)
		rt := NewRuntime(WithMode(Full), TraceTo(mem))
		prog := differentialPrograms()[5]
		if prog.name != "deadlock-cycle" {
			t.Fatalf("program table changed: got %s", prog.name)
		}
		_ = run(t, rt, prog.prog(spawn))
		if err := rt.TraceClose(); err != nil {
			t.Fatal(err)
		}
		evs := mem.Snapshot()
		return evs, trace.Verify(evs)
	}
	blockSet := func(evs []trace.Event) []string {
		var out []string
		for _, e := range evs {
			if e.Kind == trace.KindBlock {
				out = append(out, e.TaskName+"->"+e.PromiseLabel+"/"+e.Detail)
			}
		}
		sort.Strings(out)
		return out
	}
	alarms := func(evs []trace.Event) int {
		n := 0
		for _, e := range evs {
			if e.Kind == trace.KindWake && e.Detail == "alarm" {
				n++
			}
		}
		return n
	}
	sEvs, sRep := capture(schedSpawner)
	iEvs, iRep := capture(inlineSpawner)
	if !sRep.Consistent() || !iRep.Consistent() {
		t.Fatalf("inconsistent traces: scheduled %s / inline %s", sRep.Summary(), iRep.Summary())
	}
	if sRep.Deadlocks != 1 || iRep.Deadlocks != 1 {
		t.Fatalf("re-verified deadlocks: scheduled %d, inline %d; want 1 and 1",
			sRep.Deadlocks, iRep.Deadlocks)
	}
	sb, ib := blockSet(sEvs), blockSet(iEvs)
	if strings.Join(sb, ";") != strings.Join(ib, ";") {
		t.Fatalf("block multisets diverge:\n  scheduled: %v\n  inline:    %v", sb, ib)
	}
	if a, b := alarms(sEvs), alarms(iEvs); a != 1 || b != 1 {
		t.Fatalf("alarm wakes: scheduled %d, inline %d; want 1 and 1", a, b)
	}
}

// TestInlineTraceRoundTrip: a traced run mixing inline completion,
// migration, and dirty commits must re-verify clean offline, with the
// "inline" task-start detail intact in the stream.
func TestInlineTraceRoundTrip(t *testing.T) {
	mem := trace.NewMemSink(0)
	rt := NewRuntime(WithMode(Full), TraceTo(mem))
	err := run(t, rt, func(tk *Task) error {
		// Inline completion.
		a := NewPromiseNamed[int](tk, "a")
		if _, e := tk.AsyncInlineNamed("fast", func(c *Task) error {
			return a.Set(c, 1)
		}, a); e != nil {
			return e
		}
		// Migration (clean block on a promise only the caller can set).
		b := NewPromiseNamed[int](tk, "b")
		r := NewPromiseNamed[int](tk, "r")
		if _, e := tk.AsyncInlineNamed("migrant", func(c *Task) error {
			v, e := b.Get(c)
			if e != nil {
				return e
			}
			return r.Set(c, v)
		}, r); e != nil {
			return e
		}
		if e := b.Set(tk, 2); e != nil {
			return e
		}
		// Dirty commit woken by a scheduled sibling.
		d := NewPromiseNamed[int](tk, "d")
		s := NewPromiseNamed[int](tk, "s")
		if _, e := tk.AsyncNamed("sib", func(c *Task) error {
			return d.Set(c, 3)
		}, d); e != nil {
			return e
		}
		if _, e := tk.AsyncInlineNamed("dirty", func(c *Task) error {
			inner := NewPromise[int](c)
			v, e := d.Get(c)
			if e != nil {
				return e
			}
			if e := inner.Set(c, v); e != nil {
				return e
			}
			return s.Set(c, v)
		}, s); e != nil {
			return e
		}
		for _, p := range []*Promise[int]{a, r, s} {
			if _, e := p.Get(tk); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TraceClose(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Snapshot()
	rep := trace.Verify(evs)
	if !rep.Clean() {
		t.Fatalf("trace not clean: %s", rep.Summary())
	}
	inlineStarts := 0
	for _, e := range evs {
		if e.Kind == trace.KindTaskStart && e.Detail == "inline" {
			inlineStarts++
		}
	}
	if inlineStarts != 3 {
		t.Fatalf("inline task starts in trace = %d, want 3", inlineStarts)
	}
}
