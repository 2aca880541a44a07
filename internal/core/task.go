package core

import (
	"runtime/debug"
	"sync/atomic"
)

// TaskFunc is the body of a task. It receives the task's own handle, which
// stands in for the paper's thread-local currentTask: every promise
// operation names the task performing it. Returning a non-nil error (or
// panicking) fails the task; the runtime then reports the error and
// completes any promises the task still owned exceptionally.
type TaskFunc func(t *Task) error

// Task is one asynchronous task. Tasks are created by Runtime.Run (the
// root task) and Task.Async. A task owns a set of promises it is
// responsible for fulfilling; ownership moves only at spawn.
type Task struct {
	rt     *Runtime
	id     uint64
	name   string // "" means "task-<id>", rendered lazily by displayName
	parent *Task

	// waitingOn is the promise this task is currently blocked on inside
	// Get, nil otherwise. It is the second half of the dependence edges
	// Algorithm 2 traverses.
	waitingOn atomic.Pointer[pstate]

	// owned is the inverse ownership map owner^-1(t).
	// It is manipulated only by this task's own goroutine, except that the
	// parent seeds it before the task starts (a happens-before edge via
	// goroutine creation), so no locking is required. Removal is exact:
	// set and move swap-delete the entry through the promise's ownedIdx
	// back-index (noteDischarged).
	//
	// The backing array deliberately lives in its own small heap object
	// (built by the spawn that moves promises in, or lazily at the first
	// noteOwned): seeding it inline in the Task block was tried and
	// reverted — owner-side interface writes into the large long-lived
	// Task object measured ~50% slower end to end on the churn-heavy
	// verified workloads (Sieve) than writes into a dedicated small
	// slice, and tasks that never own a promise pay nothing at all.
	owned []AnyPromise

	// done is signalled at termination, after err is written. Tasks
	// nobody Waits on never pay for a channel.
	done gate
	err  error

	// park is the waiter record this task pushes onto a promise's wake
	// gate when a policy-checked wait really blocks (see blockOn). nil
	// until the first block, reused across blocks, and dropped when a
	// wait is cancelled. Confined to the task's goroutine.
	park *waiter

	// pid..pidEnd is the block of promise IDs this task has taken from
	// Runtime.nextPromise and not yet used (see NewPromiseNamed).
	// Confined to the task's goroutine.
	pid, pidEnd uint64

	// body is the task's TaskFunc from spawn until the task starts
	// running it (see taskJob). Written by the spawning task before the
	// hand-off to the executor, then read and cleared by the task's own
	// goroutine, so a finished task does not pin its closure.
	body TaskFunc

	// stage is the task's trace staging buffer (see tracer): events
	// logged on this task's goroutine accumulate here and flush to the
	// collector in chunks. Confined to that goroutine; nil until its
	// first event, and nil forever when tracing is off.
	stage []Event
}

// ID returns the task's unique identifier within its runtime.
func (t *Task) ID() uint64 { return t.id }

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.displayName() }

// displayName renders the diagnostic name, defaulting to "task-<id>". The
// default is built on demand, so spawning a task never formats a name
// nobody reads; alarm reports write it straight into their text instead
// (writeTaskName).
func (t *Task) displayName() string { return taskName(t.id, t.name) }

// Parent returns the task that spawned this one, or nil for the root task.
func (t *Task) Parent() *Task { return t.parent }

// Runtime returns the runtime this task belongs to.
func (t *Task) Runtime() *Runtime { return t.rt }

// Wait blocks until the task has terminated and returns its error, if any.
// Wait is a testing/debugging convenience outside the paper's L_p model:
// it is NOT policy-checked and NOT visible to the deadlock detector. Code
// that wants detector-visible joins should await a promise the task sets
// (see collections.Future and collections.Finish).
//
// A handle stays valid after its task terminates: Wait on a finished
// task returns its error at once.
//
// Under staged tracing, Wait does not flush the CALLING task's staging
// buffer before blocking — Wait receives only the awaited handle, so
// the caller (which may not be a task at all) is unknown here. A task
// that parks in Wait can therefore withhold up to a buffer's worth of
// its own already-sequenced events until it resumes; use WaitFrom when
// the caller is itself a task to close that gap. Policy-visible waits
// (Get/Await), the paper's model, always flush first.
func (t *Task) Wait() error {
	<-t.done.wait()
	return t.err
}

// WaitFrom is Wait for callers that are themselves tasks. Naming the
// caller lets the runtime drain the CALLER's trace staging buffer before
// parking, closing the documented Wait gap: a trace cut short while
// caller sleeps inside this join still contains every event the caller
// had already sequenced. The join itself is identical to Wait — not
// policy-checked, invisible to the deadlock detector.
//
// A nil caller is allowed and makes WaitFrom exactly Wait.
func (t *Task) WaitFrom(caller *Task) error {
	if caller != nil {
		caller.rt.flushStage(caller)
	}
	return t.Wait()
}

// OwnedPromises returns the promises this task currently owns. Like the
// rest of the owned list it is only meaningful from the task's own
// goroutine (or after the task terminated); it exists for diagnostics and
// tests. Result order is unspecified: discharge swap-deletes, which
// reorders the list.
func (t *Task) OwnedPromises() []AnyPromise {
	var out []AnyPromise
	for _, ap := range t.owned {
		if ap.state().owner.Load() == t {
			out = append(out, ap)
		}
	}
	return out
}

func (t *Task) noteOwned(p AnyPromise) {
	p.state().ownedIdx = len(t.owned)
	t.owned = append(t.owned, p)
}

// noteDischarged records that t no longer owes p (it was set, or moved to
// a child). The entry is swap-deleted in O(1) via the promise's
// back-index, so fulfilled promises are not pinned.
func (t *Task) noteDischarged(p AnyPromise) {
	s := p.state()
	i := s.ownedIdx
	last := len(t.owned) - 1
	if i < 0 || i > last || t.owned[i] != p {
		return // defensive: never corrupt the list
	}
	t.owned[i] = t.owned[last]
	t.owned[i].state().ownedIdx = i
	t.owned[last] = nil
	t.owned = t.owned[:last]
	s.ownedIdx = -1
}

// Async spawns a child task running f, moving the promises of each Movable
// argument from t to the child (rule 2). The parent must currently own
// every moved promise; otherwise an OwnershipError is returned and the
// child is not started. The transfer is complete before the child becomes
// eligible to run, which is the happens-before edge Definition 4.1
// requires.
func (t *Task) Async(f TaskFunc, moved ...Movable) (*Task, error) {
	return t.async("", f, moved)
}

// AsyncNamed is Async with a diagnostic name for the child task.
func (t *Task) AsyncNamed(name string, f TaskFunc, moved ...Movable) (*Task, error) {
	return t.async(name, f, moved)
}

func (t *Task) async(name string, f TaskFunc, moved []Movable) (*Task, error) {
	r := t.rt
	child := r.newTask(name, t)
	if r.mode >= Ownership && len(moved) > 0 {
		child.owned = Group(moved).AppendPromises(nil)
		if err := t.validateMoved(child.owned); err != nil {
			r.alarm(err)
			return nil, err
		}
		t.transferMoved(child)
	}
	r.startTask(child, f)
	return child, nil
}

// validateMoved checks that t currently owns every promise in ps (rule
// 2's precondition). Validation is separate from transfer — validate
// everything, then transfer everything — so a rejected spawn leaves
// ownership untouched.
func (t *Task) validateMoved(ps []AnyPromise) error {
	for _, ap := range ps {
		if owner := ap.state().owner.Load(); owner != t {
			return ownershipError("move", t, ap, owner)
		}
	}
	return nil
}

// transferMoved moves every promise listed in child's owned list from t
// to child (rule 2). The caller must have validated the list first. An
// entry that t no longer owns is compacted away: that happens exactly
// when the same promise is listed twice — within one spawn (directly or
// through overlapping collections) or across the specs of one
// AsyncBatch, where the first listing wins.
func (t *Task) transferMoved(child *Task) {
	r := t.rt
	ps := child.owned
	n := 0
	for _, ap := range ps {
		s := ap.state()
		if s.owner.Load() != t {
			continue
		}
		s.owner.Store(child)
		t.noteDischarged(ap)
		s.ownedIdx = n
		ps[n] = ap
		n++
		if r.events != nil {
			// Arg carries the destination task ID so the offline
			// verifier can track ownership without parsing the detail.
			r.logEventArg(EvMove, t, s, child.id, "to "+child.displayName())
		}
	}
	clear(ps[n:])
	child.owned = ps[:n]
}

func invokeTask(f TaskFunc, t *Task) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{TaskID: t.id, TaskName: t.displayName(), Value: rec, Stack: debug.Stack()}
		}
	}()
	return f(t)
}

// newTask allocates a task handle.
func (r *Runtime) newTask(name string, parent *Task) *Task {
	return &Task{rt: r, id: r.nextTask.Add(1), name: name, parent: parent}
}

// startTask opens the task's accounting, stores its body in it, and
// hands it to the executor. With the default executor (r.exec == nil)
// the task starts on a goroutine of its own; a custom executor receives
// the task itself as a Job, with no closure.
func (r *Runtime) startTask(t *Task, f TaskFunc) {
	r.beginTask(t)
	t.body = f
	if r.exec == nil {
		go t.run()
		return
	}
	r.exec.Execute((*taskJob)(t))
}

// taskJob is a spawned task as an executor sees it: its Run runs the
// task. A distinct type keeps Run off Task's exported method set, and
// the pointer conversion costs nothing.
type taskJob Task

func (j *taskJob) Run() { (*Task)(j).run() }

// run takes the body startTask stored and runs the task.
func (t *Task) run() {
	f := t.body
	t.body = nil
	t.rt.runTask(t, f)
}

// beginTask opens a task's accounting — wait-group, task counter, spawn
// metric, idle watch, EvTaskStart — which runTask later pairs. startTask
// calls it, and so does Run for the root, whose body then runs on Run's
// own goroutine.
func (r *Runtime) beginTask(t *Task) {
	r.wg.Add(1)
	r.tasks.Add(1)
	if m := cmet(); m != nil {
		m.spawnsScheduled.Inc()
	}
	if r.idle != nil {
		r.idle.taskStarted()
	}
	if r.events != nil {
		r.stageStart(t.parent, t)
	}
}

// stageStart stages t's EvTaskStart in the buffer of parent, the task
// spawning it on this goroutine (t itself for the root). The record is
// delivered at the parent's next flush, so a child that parks on
// anything but a promise before it flushes stays visible mid-run.
func (r *Runtime) stageStart(parent, t *Task) {
	e := Event{Kind: EvTaskStart, TaskID: t.id, TaskName: t.name}
	into := t
	if parent != nil {
		e.Arg, into = parent.id, parent
	}
	r.stage(into, e)
}

// runTask is the body wrapper every task runs: invoke the body on this
// goroutine, then the termination protocol — enforce rule 3 and record the
// error, publish the result, and pair the accounting beginTask (or
// startTaskBatch) opened.
func (r *Runtime) runTask(t *Task, f TaskFunc) {
	err := invokeTask(f, t)
	defer r.wg.Done()
	if r.idle != nil {
		defer r.idle.taskFinished()
	}
	err = r.finishTask(t, err)
	t.err = err
	r.finished.Add(1)
	if r.events != nil {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		// Logged — and the staging buffer drained — before the done
		// signal, so a waiter woken by Wait finds the task's complete
		// event stream already in the sinks.
		r.logEvent(EvTaskEnd, t, nil, detail)
		r.flushStage(t)
	}
	t.done.signal()
}

// finishTask enforces rule 3 and records the task's error. A terminating
// task must own no promises. Its owned list holds exactly the promises
// it still owes (set and move discharge exactly, and a terminated task
// never touches the list again), so a non-empty list is the omitted set
// as it stands: it is reported with blame, and every leaked promise is
// completed exceptionally so consumers unblock (§6.2). The task's own
// error and then its omitted set are recorded before anything they can
// wake — the cascade here, the done signal in runTask — so a woken
// waiter records its broken-promise error after its cause, and the
// run's report always lists the cause first.
// It returns what Task.Wait reports: the task's error, its omitted set,
// or a Report of both.
func (r *Runtime) finishTask(t *Task, err error) error {
	if r.mode < Ownership {
		r.record(err)
		return err
	}
	leaked := t.owned
	if len(leaked) == 0 {
		r.record(err)
		return err
	}
	om := &OmittedSetError{TaskID: t.id, taskName: t.name, Promises: leaked}
	r.alarm(om)
	cause := err
	if cause == nil {
		cause = om
	}
	own := r.recordOmitted(err, om)
	for _, ap := range leaked {
		s := ap.state()
		if s.claim() {
			s.owner.Store(nil)
			s.err = &BrokenPromiseError{
				PromiseID:    s.id,
				TaskID:       t.id,
				Cause:        cause,
				promiseLabel: s.label,
				taskName:     t.name,
			}
			// Logged between the payload write and publish, like Set: the
			// cascade completion must be sequenced before any wake it
			// causes, so the offline replay sees set-before-wake.
			if r.events != nil {
				r.logEvent(EvSetError, t, s, "cascade")
			}
			s.publish()
		}
	}
	return own
}
