package core

// Inline run-to-completion spawn.
//
// A spawn's structural floor is two context switches: parent hands the
// body to another goroutine, blocks on the join, and is switched back in
// by the child's Set (DESIGN.md, "The spawn path"). For the dominant
// short-task shape — a body that runs a few hundred nanoseconds and never
// blocks — both switches are pure overhead. Inline spawn removes them by
// executing the child's body ON THE CALLER'S GOROUTINE:
//
//   - If the body runs to completion without blocking (the common case:
//     compute, Set the result promise, return), the spawn costs no
//     context switch at all. Task accounting, rule-3 enforcement, and
//     trace records are identical to a scheduled spawn.
//   - If the body reaches a blocking wait while still CLEAN — it has not
//     created, fulfilled, or moved a promise and has not spawned — the
//     runtime MIGRATES it: the inline attempt unwinds (a sentinel panic
//     recovered by the inline invoker) and the body restarts from the top
//     on its own scheduled goroutine. Go cannot capture a goroutine's
//     continuation, so migration is abort-and-restart; it is safe exactly
//     because a clean prefix performed no runtime-visible effect, and the
//     restarted run re-executes it. (User-level side effects in the
//     prefix — writes to shared state before the first promise operation
//     — must tolerate the re-run; see AsyncInline's contract.)
//   - If the body blocks after it is DIRTY (some promise operation
//     happened), restarting would double-set and duplicate, so the wait
//     COMMITS on the borrowed goroutine: the caller's goroutine parks
//     inside the child's wait. That caller — and every transitive inline
//     host above it — is now genuinely unable to proceed until the
//     awaited promise is fulfilled, so the runtime publishes a waits-for
//     edge for each borrowed host alongside the child's own edge and
//     verifies every one of them (Algorithm 2 or the global-lock
//     ablation, whichever is configured). The detector therefore stays
//     precise for the execution that actually happens: a dirty inline
//     child blocking on a promise its host must fulfil is a real
//     deadlock of this execution, and it alarms with the exact cycle
//     instead of hanging silently. The trace closes every host edge with
//     a paired wake, so offline verification sees a consistent stream.
//
// Precision argument, in the paper's terms: migration happens strictly
// before the EvBlock record and before the line-3 waitingOn store, so a
// migrated wait is indistinguishable — in edges, blame, and trace — from
// the same wait performed by a scheduled task. A committed wait extends
// the graph with host edges that are TRUE of the current execution
// (Lemma 4.4 confinement is preserved: each host's waitingOn store is
// performed on the host's own goroutine, which the child has borrowed),
// so alarm-iff-deadlock continues to hold.

import (
	"context"
	"errors"
	"runtime/debug"
)

// Inline lifecycle values of Task.inline. The field is confined to the
// goroutine currently executing the task (the host's during an inline
// attempt, the task's own after migration), so it needs no atomics.
const (
	// inlineNone: not an inline execution (or migration completed).
	inlineNone uint8 = iota
	// inlineSpeculative: body running on the host's goroutine, still
	// clean — a blocking wait aborts and restarts scheduled.
	inlineSpeculative
	// inlineDirty: body running on the host's goroutine after a promise
	// operation — a blocking wait commits on the borrowed goroutine.
	inlineDirty
	// inlineAborted: the migration sentinel has been thrown and is
	// unwinding; set just before the panic so the invoker can tell the
	// sentinel from a user panic.
	inlineAborted
	// inlinePoisoned: a promise operation ran AFTER the migration
	// sentinel was thrown — user code recovered the sentinel and kept
	// going. The prefix is no longer re-runnable; the task must fail.
	inlinePoisoned
)

// maxInlineDepth bounds nested inline spawns (an inline body inlining its
// own children). Past the bound AsyncInline degrades to a scheduled
// spawn: each nesting level is a stack frame pile on one goroutine, and
// 32 levels is already far beyond any sane fan-out-of-short-tasks shape.
const maxInlineDepth = 32

// inlineMigrate is the sentinel the blocking surface throws to unwind a
// clean inline body back to its invoker for migration. User code must
// not swallow it in a recover(); doing so poisons the task (see
// invokeInline).
type inlineMigrate struct{}

// errInlineRecovered fails a task whose body recovered the migration
// sentinel: its wait never happened and its prefix may have partially
// re-run, so neither completing nor restarting it is sound.
var errInlineRecovered = errors.New(
	"core: inline task recovered the migration signal (inlineMigrate); body cannot be completed or migrated")

// markDirty records that the task performed a promise operation, ending
// its speculative (restartable) phase. One byte compare on the spawn-free
// hot paths; called at promise creation, fulfilment, and spawn.
func (t *Task) markDirty() {
	switch t.inline {
	case inlineSpeculative:
		t.inline = inlineDirty
	case inlineAborted:
		t.inline = inlinePoisoned
	}
}

// AsyncInline is Async with inline run-to-completion: the child's body
// executes on the CALLER's goroutine up to its first blocking wait, then
// either migrates to the scheduler (if it is still clean — see below) or
// commits the wait on the caller's goroutine with full detector
// visibility. A body that never blocks completes before AsyncInline
// returns, costing no context switch at all.
//
// Contract: the body's prefix up to its first promise operation may be
// executed TWICE (once inline, once after migration), so side effects in
// that prefix must be idempotent or absent. Promise operations themselves
// are never repeated — the first one ends the restartable phase. Do not
// recover() panics of type inlineMigrate inside the body; a body that
// swallows the migration signal fails with an error.
func (t *Task) AsyncInline(f TaskFunc, moved ...Movable) (*Task, error) {
	return t.asyncInline("", f, moved)
}

// AsyncInlineNamed is AsyncInline with a diagnostic name for the child.
func (t *Task) AsyncInlineNamed(name string, f TaskFunc, moved ...Movable) (*Task, error) {
	return t.asyncInline(name, f, moved)
}

func (t *Task) asyncInline(name string, f TaskFunc, moved []Movable) (*Task, error) {
	t.markDirty() // a spawn is runtime-visible: the spawner cannot restart
	if t.inlineDepth >= maxInlineDepth {
		return t.asyncScheduled(name, f, moved)
	}
	r := t.rt
	child := r.newTask(name, t)
	if r.mode >= Ownership && len(moved) > 0 {
		if err := t.validateMoved(moved); err != nil {
			r.alarm(err)
			return nil, err
		}
		t.transferMoved(child, moved)
	}
	r.startTaskInline(t, child, f)
	return child, nil
}

// startTaskInline is startTask's inline twin: identical accounting
// (beginTask), then the body runs on the host's goroutine instead of being
// handed to the executor. On migration the task moves to the normal
// executor path with its bookkeeping already done — runTask pairs the
// wg.Add beginTask performed.
func (r *Runtime) startTaskInline(host, t *Task, f TaskFunc) {
	r.beginTask(t, true)
	t.inline = inlineSpeculative
	t.inlineHost = host
	t.inlineDepth = host.inlineDepth + 1
	err, migrate := r.invokeInline(t, f)
	t.inline = inlineNone
	t.inlineHost = nil
	t.inlineDepth = 0
	if migrate {
		if m := cmet(); m != nil {
			m.inlineMigrated.Inc()
		}
		r.dispatch(t, f)
		return
	}
	r.completeTask(t, err)
}

// invokeInline runs the body on the current (host) goroutine and sorts
// its exits: normal return or user panic complete the task inline;
// the migration sentinel (with the task still merely aborted) requests a
// scheduled restart; a poisoned task — user code recovered the sentinel,
// or performed promise operations while it unwound — fails.
func (r *Runtime) invokeInline(t *Task, f TaskFunc) (err error, migrate bool) {
	defer func() {
		rec := recover()
		if rec == nil {
			if t.inline == inlineAborted || t.inline == inlinePoisoned {
				// The body returned normally AFTER the sentinel was thrown:
				// a recover() swallowed it.
				err = errInlineRecovered
			}
			return
		}
		if _, ok := rec.(inlineMigrate); ok {
			if t.inline == inlineAborted {
				migrate = true
				return
			}
			err = errInlineRecovered
			return
		}
		err = &PanicError{TaskID: t.id, TaskName: t.displayName(), Value: rec, Stack: debug.Stack()}
	}()
	err = f(t)
	return
}

// awaitInline is the blocking surface's inline hook, reached when the
// task executing a would-block wait is running on a borrowed goroutine.
// Speculative tasks migrate (after the same near-miss spin the scheduled
// path uses); dirty tasks commit the wait here.
func (r *Runtime) awaitInline(t *Task, s *pstate, ctx context.Context) error {
	switch t.inline {
	case inlineSpeculative:
		// Still clean: a short spin may catch a racing Set and keep the
		// whole spawn inline. Skipped on traced runs, exactly like the
		// scheduled near-miss path, so block/wake pairs stay deterministic.
		if r.events == nil && r.spinAwait(s) {
			return nil
		}
		t.inline = inlineAborted
		panic(inlineMigrate{})
	case inlineDirty:
		return r.awaitInlineCommitted(t, s, ctx)
	default:
		// Aborted or poisoned: the sentinel was recovered by user code and
		// the body is waiting again. Keep unwinding; the invoker decides
		// whether migration is still sound.
		t.markDirty() // aborted -> poisoned: this wait is a new operation
		panic(inlineMigrate{})
	}
}

// awaitInlineCommitted is a blocking wait performed on borrowed
// goroutines: the child's waits-for edge is published and verified as
// usual, and ADDITIONALLY one edge per inline host, because each host's
// goroutine is captive inside this wait — each host is truthfully
// waiting for s. Every published edge is withdrawn, and its trace
// block/wake pair closed, on every exit path (fulfilment, alarm,
// cancellation).
func (r *Runtime) awaitInlineCommitted(t *Task, s *pstate, ctx context.Context) error {
	if r.events == nil && r.spinAwait(s) {
		return nil
	}
	if r.idle != nil {
		r.idle.enterBlocked()
		for h := t.inlineHost; h != nil; h = h.inlineHost {
			r.idle.enterBlocked()
		}
		defer func() {
			r.idle.exitBlocked()
			for h := t.inlineHost; h != nil; h = h.inlineHost {
				r.idle.exitBlocked()
			}
		}()
	}
	if r.events != nil {
		r.logEvent(EvBlock, t, s, "")
	}
	full := r.mode == Full
	glock := full && r.detector == DetectGlobalLock
	// The child's own edge first — EvBlock is already in the stream, so
	// an alarm that traverses the edge can be re-walked offline.
	if full {
		var err error
		if glock {
			err = r.gdet.beforeWait(t, s)
		} else {
			err = t.verifyAwait(s)
		}
		if err != nil {
			r.alarm(err)
			if r.events != nil {
				r.logEvent(EvWake, t, s, "alarm")
			}
			return err
		}
	}
	// Host edges, innermost first. Each edge is logged before it is
	// verified (same block-before-alarm ordering as the child's), and its
	// waitingOn store happens on the host's own — borrowed — goroutine,
	// preserving the confinement the detector's correctness argument
	// relies on.
	published := 0
	for h := t.inlineHost; h != nil; h = h.inlineHost {
		if r.events != nil {
			r.logEvent(EvBlock, h, s, "inline")
		}
		if full {
			var err error
			if glock {
				err = r.gdet.beforeWait(h, s)
			} else {
				err = h.verifyAwait(s)
			}
			if err != nil {
				// This host's wait IS the deadlock: its goroutine is captive
				// under a wait on a promise only it (transitively) can
				// fulfil. Close its pair, withdraw everything below it, and
				// fail the child's wait with the precise cycle.
				r.alarm(err)
				if r.events != nil {
					r.logEvent(EvWake, h, s, "alarm")
				}
				r.withdrawInline(t, s, published, "alarm")
				return err
			}
		}
		published++
	}
	// Every borrowed goroutine is about to park: drain each captive
	// task's staging buffer so a trace cut short at a hang still shows
	// every one of them blocked.
	r.flushStageIfStaged(t)
	for h := t.inlineHost; h != nil; h = h.inlineHost {
		r.flushStageIfStaged(h)
	}
	if cerr := r.blockOn(t, s, ctx); cerr != nil {
		r.withdrawInline(t, s, published, "cancel")
		return cerr
	}
	// Requirement 3 ordering holds exactly as in awaitState: blockOn only
	// admits after the publish, and the edge resets below are sequenced
	// after it.
	r.withdrawInline(t, s, published, "")
	return nil
}

// withdrawInline clears the child's edge and the first `published` host
// edges and closes their trace pairs with the given wake detail ("",
// "alarm", or "cancel").
func (r *Runtime) withdrawInline(t *Task, s *pstate, published int, detail string) {
	full := r.mode == Full
	glock := full && r.detector == DetectGlobalLock
	if full {
		if glock {
			r.gdet.afterWait(t)
		} else {
			t.waitingOn.Store(nil)
		}
	}
	if r.events != nil {
		r.logEvent(EvWake, t, s, detail)
	}
	n := 0
	for h := t.inlineHost; h != nil && n < published; h = h.inlineHost {
		if full {
			if glock {
				r.gdet.afterWait(h)
			} else {
				h.waitingOn.Store(nil)
			}
		}
		if r.events != nil {
			r.logEvent(EvWake, h, s, detail)
		}
		n++
	}
}
