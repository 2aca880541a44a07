package core

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Lifecycle values of pstate.state, the packed promise state word.
const (
	// stateEmpty: unfulfilled and unclaimed; Set may still win the CAS.
	stateEmpty uint32 = iota
	// stateClaimed: a setter won the claim CAS but the payload write is
	// still in flight. Observers treat the promise as unfulfilled (exactly
	// as they treated the window between the old completed.CompareAndSwap
	// and close(done)).
	stateClaimed
	// stateFulfilled: the payload (value or err) is visible. The store of
	// this value is the release that publishes the payload; any load that
	// observes it is the matching acquire.
	stateFulfilled
)

// pstate is the type-erased core of a promise: everything the ownership
// policy and the deadlock detector need, independent of the payload type.
// The detector traverses *pstate values, so promises of different payload
// types participate in the same dependence chains.
type pstate struct {
	id    uint64
	label string // "" means "promise-<id>", rendered lazily by displayLabel

	// owner is the task currently responsible for fulfilling this promise,
	// nil once fulfilled (and always nil in Unverified mode). Writes are
	// confined to the current owner (creation, transfer before spawn, set),
	// which is the paper's Lemma 4.4: owner fields are free of write-write
	// races by construction.
	owner atomic.Pointer[Task]

	// state is the packed lifecycle word. It absorbs the roles of the old
	// `completed atomic.Bool` (stateEmpty -> stateClaimed claims the unique
	// right to fulfil, catching double sets in every mode) and of the old
	// select-on-done checks (state == stateFulfilled IS "fulfilled", as a
	// single atomic load).
	state atomic.Uint32

	// wake is the wakeup gate blocked consumers park on. It allocates
	// nothing itself: a blocking task links its reusable waiter record,
	// and only Done links a fresh channel.
	wake gate

	// err is the exceptional payload; written (if at all) between claim
	// and publish, so every reader that has observed stateFulfilled sees it.
	err error

	// ownedIdx is the promise's slot in its owner's owned list (exact
	// removal). Like the list itself it is confined to
	// the owning task (with the parent-to-child hand-off at spawn), so it
	// needs no synchronization. -1 when not in any list.
	ownedIdx int
}

func (s *pstate) fulfilled() bool { return s.state.Load() == stateFulfilled }

// claim wins the unique right to fulfil the promise. Exactly one claim per
// promise ever succeeds, in every mode.
func (s *pstate) claim() bool { return s.state.CompareAndSwap(stateEmpty, stateClaimed) }

// publish makes the payload visible and wakes blocked consumers. The state
// store is the release fence of §5.1 Requirement 3: it is ordered after the
// payload write (program order + atomic release) and before the wake
// signal, so a consumer woken through either path observes the payload.
func (s *pstate) publish() {
	s.state.Store(stateFulfilled)
	s.wake.signal()
}

// displayLabel renders the diagnostic name, defaulting to "promise-<id>".
// Like Task.displayName, the default is built on demand, so the promise
// fast path never renders a label nobody reads.
func (s *pstate) displayLabel() string { return promiseLabel(s.id, s.label) }

// AnyPromise is the payload-independent view of a promise. Every
// *Promise[T] implements it; the Movable interface and all diagnostics
// (omitted-set blame, deadlock cycles) are expressed in terms
// of AnyPromise.
type AnyPromise interface {
	// ID returns the promise's unique identifier within its runtime.
	ID() uint64
	// Label returns the diagnostic name given at creation.
	Label() string
	// Owner returns the task currently responsible for fulfilling the
	// promise, or nil if it has been fulfilled (or the runtime is
	// Unverified, in which case ownership is not tracked).
	Owner() *Task
	// Fulfilled reports whether the promise has been set.
	Fulfilled() bool

	state() *pstate
}

// Promise is a write-once, many-reader synchronization cell carrying a
// payload of type T. Get blocks until the first and only Set. Under the
// Ownership and Full runtime modes the promise is owned by exactly one
// task at a time and the ownership policy of the paper is enforced.
//
// The uncontended lifecycle is allocation-free beyond the Promise object
// itself: creation initializes plain fields, Set is one CAS and one store,
// and a Get after fulfilment is a single atomic load.
type Promise[T any] struct {
	s     pstate
	value T
}

// promiseIDBlock is how many promise IDs a task takes from the runtime's
// counter at once. Tasks that create promises concurrently then share
// one atomic add per block instead of one per promise; IDs stay unique
// within a runtime but are no longer dense or in creation order across
// tasks.
const promiseIDBlock = 64

// NewPromise allocates a promise owned by task t (rule 1 of the policy).
func NewPromise[T any](t *Task) *Promise[T] {
	return NewPromiseNamed[T](t, "")
}

// NewPromiseNamed allocates a promise owned by task t with a diagnostic
// label used in error messages and event logs. The empty label selects the
// default "promise-<id>", rendered lazily.
func NewPromiseNamed[T any](t *Task, label string) *Promise[T] {
	r := t.rt
	p := &Promise[T]{}
	if t.pid == t.pidEnd {
		t.pidEnd = r.nextPromise.Add(promiseIDBlock)
		t.pid = t.pidEnd - promiseIDBlock
	}
	t.pid++
	p.s.id = t.pid
	p.s.label = label
	if r.mode >= Ownership {
		p.s.owner.Store(t)
		t.noteOwned(p)
	}
	if r.events != nil {
		r.logEvent(EvNewPromise, t, &p.s, "")
	}
	return p
}

// ID returns the promise's unique identifier within its runtime.
func (p *Promise[T]) ID() uint64 { return p.s.id }

// Label returns the diagnostic name given at creation.
func (p *Promise[T]) Label() string { return p.s.displayLabel() }

// Owner returns the task currently responsible for fulfilling the promise,
// or nil if fulfilled or untracked.
func (p *Promise[T]) Owner() *Task { return p.s.owner.Load() }

// Fulfilled reports whether the promise has been set. A single atomic load.
func (p *Promise[T]) Fulfilled() bool { return p.s.fulfilled() }

// Done returns a channel closed when the promise is fulfilled. It is an
// observation hook (for select loops in tests); it does not establish a
// waits-for edge and is not checked by the deadlock detector.
//
// Calling Done on an unfulfilled promise allocates a fresh channel (and
// the waiter record linking it to the promise) on every call; prefer
// Fulfilled or TryGet when a non-blocking check is all that is needed.
func (p *Promise[T]) Done() <-chan struct{} { return p.s.wake.wait() }

func (p *Promise[T]) state() *pstate { return &p.s }

// AppendPromises makes a single promise Movable, so it can be passed
// directly to Task.Async.
func (p *Promise[T]) AppendPromises(dst []AnyPromise) []AnyPromise { return append(dst, p) }

// awaitState is the policy-checked blocking wait shared by Get, Await and
// their context-accepting forms: fast path, deadlock verification,
// idle-watch accounting, block. ctx (nil for the plain forms) bounds the
// wait together with the runtime's run scope — see context.go. On a nil
// return the promise is fulfilled (normally or exceptionally — the caller
// reads s.err); a CanceledError means the wait was abandoned and the
// promise may never be fulfilled.
func awaitState(t *Task, s *pstate, ctx context.Context) error {
	r := t.rt
	if r.countEvents {
		r.gets.Add(1)
	}
	// Fast path: already fulfilled. One atomic load; observing
	// stateFulfilled acquires the payload published by Set. No waits-for
	// edge is needed because no blocking occurs. Fulfilment deliberately
	// wins over cancellation: a value that is already there is returned
	// even under a dead context, so retries are deterministic.
	if s.state.Load() == stateFulfilled {
		return nil
	}
	// Cancellation fail-fast: a wait that begins after its context (or the
	// run scope) has ended never blocks and never logs a block/wake pair.
	if err := r.canceled(t, s, ctx); err != nil {
		return err
	}
	if r.idle != nil {
		r.idle.enterBlocked()
		defer r.idle.exitBlocked()
	}
	if r.events != nil {
		r.logEvent(EvBlock, t, s, "")
	}
	if r.mode == Full {
		var err error
		if r.detector == DetectGlobalLock {
			err = r.gdet.beforeWait(t, s)
		} else {
			// Algorithm 2: publish the waits-for edge, then verify the
			// dependence chain before committing to block. The EvBlock
			// above is deliberately logged BEFORE verification: the edge
			// must be in the stream ahead of any alarm that traverses it,
			// so the offline verifier can re-walk the cycle at the
			// alarm's sequence point.
			err = t.verifyAwait(s)
		}
		if err != nil {
			r.alarm(err)
			// The wait is abandoned, not satisfied: the trace closes the
			// block/wake pair with an explicit "alarm" wake so the offline
			// replay does not see a task blocked forever.
			if r.events != nil {
				r.logEvent(EvWake, t, s, "alarm")
			}
			return err
		}
	}
	// Drain the staging buffer before parking: a trace cut short at a
	// hang must still contain every blocked task's block record.
	r.flushStage(t)
	cerr := r.blockOn(t, s, ctx)
	if r.mode == Full {
		// Requirement 3 (§5.1): the reset of waitingOn becomes visible only
		// after the fulfilment of p is visible. Both ways out of blockOn
		// order this store after publish: receiving the wake token
		// happens-after the signal's Swap, and a push refused by the
		// sentinel loaded what that Swap stored — and the Swap follows the
		// stateFulfilled store in the setter's program order. After a
		// cancel the task is runnable again, so the reset only ever
		// REMOVES an edge from the graph a concurrent traversal can see:
		// the detector stays free of false alarms, and a deadlock this
		// task was part of no longer exists once it stops waiting. The
		// promise's packed state word is untouched.
		if r.detector == DetectGlobalLock {
			r.gdet.afterWait(t)
		} else {
			t.waitingOn.Store(nil)
		}
	}
	if r.events != nil {
		detail := ""
		if cerr != nil {
			detail = "cancel"
		}
		r.logEvent(EvWake, t, s, detail)
	}
	return cerr
}

// Await blocks task t until p is fulfilled, with exactly the policy and
// deadlock checking of Get, but without reading the payload. It is the
// type-erased wait used by data-driven tasks (collections.AsyncAwait) and
// by code that synchronizes on promises of heterogeneous types. The error
// is non-nil if the wait would deadlock or the promise completed
// exceptionally.
func Await(t *Task, p AnyPromise) error {
	s := p.state()
	if err := awaitState(t, s, nil); err != nil {
		return err
	}
	return s.err
}

// AwaitContext is Await bounded by ctx: identical policy and deadlock
// checking, but the wait additionally aborts with a CanceledError when
// ctx is canceled or reaches its deadline. See Promise.GetContext for the
// exact cancellation semantics.
func AwaitContext(ctx context.Context, t *Task, p AnyPromise) error {
	s := p.state()
	if err := awaitState(t, s, ctx); err != nil {
		return err
	}
	return s.err
}

// Get blocks task t until the promise is fulfilled and returns the payload.
// It returns a non-nil error if the promise was completed exceptionally
// (BrokenPromiseError from an omitted-set cascade, or a user SetError), or
// if, in Full mode, this wait would complete a deadlock cycle — in which
// case a DeadlockError naming the whole cycle is returned immediately and
// the task does not block.
func (p *Promise[T]) Get(t *Task) (T, error) {
	if err := awaitState(t, &p.s, nil); err != nil {
		var zero T
		return zero, err
	}
	return p.value, p.s.err
}

// GetContext is Get bounded by ctx: the same policy checks, the same
// deadlock detection, but the wait aborts with a CanceledError the moment
// ctx is canceled or reaches its deadline. The abandoned promise is left
// exactly as it was — unfulfilled, owned, available for a later (re)try —
// and the task is runnable again immediately.
//
// Precedence, in order: an already-fulfilled promise returns its payload
// even under a dead context; a wait that would complete a deadlock cycle
// returns the DeadlockError at the moment it would block (the precise
// alarm always beats the imprecise deadline); only a genuinely blocked
// wait can end in cancellation. Cancellation is not an alarm: it proves
// nothing about the program and fires no alarm handler.
//
// A nil ctx (or one that can never be canceled) makes GetContext exactly
// Get. The run scope installed by RunContext bounds every wait, with or
// without a per-call ctx.
func (p *Promise[T]) GetContext(ctx context.Context, t *Task) (T, error) {
	if err := awaitState(t, &p.s, ctx); err != nil {
		var zero T
		return zero, err
	}
	return p.value, p.s.err
}

// MustGet is Get for contexts where an error is a programming bug; it
// panics on error. The panic is recovered by the task wrapper and reported
// through the runtime.
func (p *Promise[T]) MustGet(t *Task) T {
	v, err := p.Get(t)
	if err != nil {
		panic(err)
	}
	return v
}

// TryGet returns the payload if the promise is already fulfilled, without
// blocking and without establishing a waits-for edge. A single atomic load.
func (p *Promise[T]) TryGet() (T, bool) {
	if p.s.fulfilled() {
		return p.value, p.s.err == nil
	}
	var zero T
	return zero, false
}

// TryGetErr is TryGet distinguishing the two reasons TryGet reports false:
// ok is true iff the promise is fulfilled (normally or exceptionally), and
// err carries the exceptional completion when there is one. Like TryGet it
// never blocks and never creates a waits-for edge.
func (p *Promise[T]) TryGetErr() (v T, ok bool, err error) {
	if p.s.fulfilled() {
		return p.value, true, p.s.err
	}
	var zero T
	return zero, false, nil
}

// Set fulfils the promise with value v (rule 4: only the current owner may
// set, and only once). On success the promise has no owner afterwards.
func (p *Promise[T]) Set(t *Task, v T) error {
	if err := p.beginSet(t); err != nil {
		return err
	}
	p.value = v
	// Logged between the payload write and publish: a consumer can only
	// wake after publish, whose sequence fetch follows this one, so the
	// trace always shows set-before-wake — the invariant the offline
	// verifier (cmd/tracecheck) checks on every wake.
	if r := t.rt; r.events != nil {
		r.logEvent(EvSet, t, &p.s, "")
	}
	p.s.publish()
	return nil
}

// SetError completes the promise exceptionally: every Get returns err. The
// ownership rules are identical to Set. This is the promise-level
// mechanism (completeExceptionally in Java, set_exception in C++) that the
// omitted-set cascade also uses.
func (p *Promise[T]) SetError(t *Task, err error) error {
	if err == nil {
		err = fmt.Errorf("core: promise %s completed exceptionally", p.s.displayLabel())
	}
	if e := p.beginSet(t); e != nil {
		return e
	}
	p.s.err = err
	// Sequenced before publish for the same reason as in Set.
	if r := t.rt; r.events != nil {
		r.logEvent(EvSetError, t, &p.s, err.Error())
	}
	p.s.publish()
	return nil
}

// MustSet is Set for contexts where an error is a programming bug; it
// panics on error.
func (p *Promise[T]) MustSet(t *Task, v T) {
	if err := p.Set(t, v); err != nil {
		panic(err)
	}
}

// beginSet performs the policy checks shared by Set and SetError and
// claims the completion. On return with nil error the caller must complete
// the promise (write payload, publish).
func (p *Promise[T]) beginSet(t *Task) error {
	r := t.rt
	if r.countEvents {
		r.sets.Add(1)
	}
	s := &p.s
	if r.mode >= Ownership {
		owner := s.owner.Load()
		if owner != t {
			var err error
			if owner == nil && s.state.Load() != stateEmpty {
				err = &DoubleSetError{TaskID: t.id, TaskName: t.displayName(), PromiseID: s.id, PromiseLabel: s.displayLabel()}
			} else {
				err = ownershipError("set", t, p, owner)
			}
			r.alarm(err)
			return err
		}
		if !s.claim() {
			err := &DoubleSetError{TaskID: t.id, TaskName: t.displayName(), PromiseID: s.id, PromiseLabel: s.displayLabel()}
			r.alarm(err)
			return err
		}
		// Rule 4: the fulfilled promise has no owner. The owner field is
		// cleared before the payload becomes visible; a concurrent verifier
		// that reads nil here simply commits to a wait that will end
		// momentarily.
		s.owner.Store(nil)
		t.noteDischarged(p)
		return nil
	}
	if !s.claim() {
		err := &DoubleSetError{TaskID: t.id, TaskName: t.displayName(), PromiseID: s.id, PromiseLabel: s.displayLabel()}
		r.alarm(err)
		return err
	}
	return nil
}

func ownershipError(op string, t *Task, p AnyPromise, owner *Task) *OwnershipError {
	e := &OwnershipError{
		Op:           op,
		TaskID:       t.id,
		TaskName:     t.displayName(),
		PromiseID:    p.ID(),
		PromiseLabel: p.Label(),
	}
	if owner != nil {
		e.OwnerID = owner.id
		e.OwnerName = owner.displayName()
	}
	return e
}
