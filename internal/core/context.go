package core

// Context-first cancellation for the promise runtime.
//
// The paper's policy guarantees that every blocked Get is eventually
// resolved by the PROGRAM — a value, a broken-promise error, or a
// deadlock alarm. A serving deployment additionally needs the CALLER to
// be able to give up: request deadlines, client disconnects, graceful
// drain. This file threads context.Context through the blocking surface:
//
//   - RunContext(ctx, main) runs a program under a cancellation scope.
//     Cancelling ctx is structured cancellation of the root task: every
//     descendant blocked in a policy-checked wait unblocks promptly with
//     a CanceledError, tasks unwind returning those errors, and the
//     ownership policy reports omitted sets with blame on the way down
//     (leaked promises cascade exceptionally, exactly as for any other
//     failing task). RunContext waits for the tree to unwind, so when it
//     returns the runtime owns no goroutines.
//   - GetContext / AwaitContext / blockOn cover a single wait: the
//     per-call ctx and the run scope are both armed while the task is
//     parked, and whichever ends first aborts the wait.
//   - RunDetached(ctx, main) is the comparator/demo variant: when ctx
//     ends first it returns WITHOUT cancelling, leaving the task tree
//     frozen (blocked tasks stay blocked) so hangs can be drawn.
//     This is the historical RunWithTimeout contract.
//
// Cancellation is NOT an alarm. It proves nothing about the program —
// the precise detector keeps its alarm-iff-deadlock guarantee, and a
// cancelled waiter abandons its wait without touching the promise's
// packed state word: the task drops its parked waiter record, which stays
// linked in the wake gate (a later Set wakes it for nobody, which is
// harmless). The trace closes the block with an EvWake "cancel" record,
// so offline verification still sees every block/wake pair matched.
//
// Cost: the uncancelled fast path is untouched — ctx state is consulted
// only on the slow path (the wait was not already fulfilled), and the
// no-scope case is a nil check plus one atomic pointer load before the
// same blocking receive as before. Nothing is allocated for a wait that
// is never cancelled; a cancelled one costs its task a fresh waiter
// record at the next block.

import (
	"context"
	"sync/atomic"
)

// runScope is the active run-level cancellation scope, installed by
// RunContext for the duration of one run. Loaded (never mutated) by every
// blocking wait, so abandoned goroutines from a detached run can keep
// reading it race-free.
type runScope struct {
	ctx  context.Context
	done <-chan struct{}
}

// runScopePtr lives on the Runtime; see Runtime.run in runtime.go.
type runScopePtr = atomic.Pointer[runScope]

// RunContext is Run under a cancellation scope. It executes main as the
// root task and blocks until every task spawned (transitively) has
// terminated — including after cancellation: cancelling ctx unblocks
// every policy-checked wait in the tree with a CanceledError (structured
// cancellation of the root task), the tasks unwind cooperatively, and
// RunContext then returns the run's report joined with the scope's
// CanceledError first. If the scope expired without disturbing a single
// wait — the program ran to completion anyway — the result is reported
// exactly as Run would have (fulfilment beats cancellation at the run
// level too).
//
// Cancellation is cooperative: a task blocked in Get/Await (or any
// context-accepting wait) aborts promptly; a task that is computing, or
// blocked outside the promise runtime, is not interrupted and delays the
// unwind until it next returns or waits. For a hard deadline that
// abandons a wedged tree instead of waiting, see RunDetached.
//
// A ctx that can never be cancelled (context.Background) selects the
// plain Run path with zero added cost.
func (r *Runtime) RunContext(ctx context.Context, main TaskFunc) error {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	if done == nil {
		return r.Run(main)
	}
	if ctx.Err() != nil {
		// Cancelled before the root task ever started: nothing ran.
		return &CanceledError{Cause: context.Cause(ctx)}
	}
	// The store is sequenced before the root task's body runs (inside Run,
	// on this goroutine) and so before every spawn, which is the
	// happens-before edge making the scope visible to every task in the
	// tree without per-wait synchronization beyond the pointer load.
	r.runWaitsCanceled.Store(false)
	r.run.Store(&runScope{ctx: ctx, done: done})
	err := r.Run(main)
	r.run.Store(nil)
	// Join the scope's CanceledError only if the cancellation actually
	// disturbed the run (some wait aborted through the scope). A program
	// that completed every wait normally is reported as it finished, even
	// when ctx expired at the very end — the run-level analogue of an
	// already-fulfilled promise returning its payload under a dead ctx.
	// (Tasks that observed the cancellation themselves — via Task.Context
	// or a per-call ctx — still surface it through err as usual.)
	if r.runWaitsCanceled.Load() {
		err = joinErrs(&CanceledError{Cause: context.Cause(ctx)}, err)
	}
	return err
}

// RunDetached runs main and gives up — without cancelling — if ctx ends
// first: it returns the scope's cause joined with the errors recorded so
// far, leaving the task tree exactly as it stands. Blocked tasks stay
// blocked and their goroutines are abandoned (they cannot be killed), so
// a hang under the weaker modes can be drawn from the event log
// (trace.NewGraph over Runtime.Events) or simply demonstrated. This is the comparator the §1 timeout
// discussion needs: an inconclusive deadline, not detection — and not
// cancellation either, which would destroy the very evidence of the hang.
//
// A runtime abandoned by RunDetached must not be reused.
func (r *Runtime) RunDetached(ctx context.Context, main TaskFunc) error {
	if ctx == nil || ctx.Done() == nil {
		return r.Run(main)
	}
	if err := ctx.Err(); err != nil {
		return joinErrs(context.Cause(ctx), r.Err())
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return joinErrs(context.Cause(ctx), r.Err())
	}
}

// Context returns the cancellation scope this task's run executes under:
// the ctx given to Runtime.RunContext, or context.Background() when the
// run cannot be cancelled. Compute-bound task bodies poll it (ctx.Err, or
// select on ctx.Done) to participate in structured cancellation — blocked
// waits abort on their own, but a loop that never blocks must cooperate,
// and I/O done inside a task should be bounded by this ctx.
func (t *Task) Context() context.Context {
	if rs := t.rt.run.Load(); rs != nil {
		return rs.ctx
	}
	return context.Background()
}

// canceled reports the cancellation error a wait by t on s must fail
// with — the per-call ctx first, then the run scope — or nil when
// neither has ended. It is the wait's fail-fast check: a wait that
// begins after cancellation never blocks, never logs a block/wake pair,
// and never publishes a waits-for edge.
func (r *Runtime) canceled(t *Task, s *pstate, ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		if s.state.Load() == stateFulfilled {
			return nil // a Set raced the caller's fulfilled check: value wins
		}
		return newCanceledError(t, s, context.Cause(ctx))
	}
	if rs := r.run.Load(); rs != nil && rs.ctx.Err() != nil {
		if s.state.Load() == stateFulfilled {
			return nil
		}
		r.runWaitsCanceled.Store(true)
		return newCanceledError(t, s, context.Cause(rs.ctx))
	}
	return nil
}

// blockOn parks the calling task on s's wake gate until fulfilment or
// cancellation, whichever is first. nil means the gate admitted the
// task: the promise is fulfilled and the payload visible (receiving the
// token happens-after the signal, which follows publish; a push refused
// by the sentinel observed the signal's Swap). A non-nil CanceledError
// means the wait was abandoned; the promise and its packed state word are
// untouched, and the caller owns the cleanup of its waits-for edge.
//
// The task parks its own waiter record (Task.park), allocated at its
// first real block and reused for every later one. A task waits on at
// most one gate at a time, and the record is pushed again only after
// its token was received. The cancel arms break that cycle: the record
// may still be linked in s's gate, or hold a token nobody received, so
// the task drops it and allocates a fresh one at its next block.
//
// With no per-call ctx and no run scope this is a plain blocking
// receive; a select with the armed subset runs otherwise (a nil channel
// never fires).
func (r *Runtime) blockOn(t *Task, s *pstate, ctx context.Context) error {
	if m := cmet(); m != nil {
		m.blocks.Inc()
	}
	w := t.park
	if w == nil {
		w = &waiter{ch: make(chan struct{}, 1)}
		t.park = w
	}
	if !s.wake.push(w) {
		return nil // signalled since the caller's fulfilled check
	}
	var callDone <-chan struct{}
	if ctx != nil {
		callDone = ctx.Done()
	}
	rs := r.run.Load()
	var runDone <-chan struct{}
	if rs != nil {
		runDone = rs.done
	}
	if callDone == nil && runDone == nil {
		<-w.ch
		return nil
	}
	select {
	case <-w.ch:
		return nil
	case <-callDone:
		t.park = nil
		// Fulfilment beats cancellation even when the two race: if the
		// publish landed before this load, the value is there and the
		// acquire semantics are identical to the wake path — report it.
		if s.state.Load() == stateFulfilled {
			return nil
		}
		return newCanceledError(t, s, context.Cause(ctx))
	case <-runDone:
		t.park = nil
		if s.state.Load() == stateFulfilled {
			return nil
		}
		r.runWaitsCanceled.Store(true)
		return newCanceledError(t, s, context.Cause(rs.ctx))
	}
}
