package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrTimeout is the conventional cancellation cause for a run deadline:
// pass it to context.WithTimeoutCause and RunDetached (or RunContext)
// and errors.Is(err, ErrTimeout) identifies a program that did not
// finish in time. Under the Unverified and Ownership modes a deadlock
// cycle manifests only as such a hang; Full mode raises a DeadlockError
// at the moment the cycle forms instead.
var ErrTimeout = errors.New("core: run timed out (program hung; possible undetected deadlock)")

// ErrAwaitTimeout is the conventional cancellation cause for a single
// bounded wait: pass it to context.WithTimeoutCause and GetContext, and
// errors.Is(err, ErrAwaitTimeout) identifies a wait whose deadline
// expired before fulfilment. It is deliberately NOT a DeadlockError: a
// timed-out wait proves nothing about cycles (the heuristic's
// imprecision discussed in §1).
var ErrAwaitTimeout = errors.New("core: promise wait timed out (heuristic; not proof of deadlock)")

// CanceledError reports a wait or a run abandoned because its context —
// the per-call context of a GetContext/AwaitContext, or the run scope
// installed by RunContext — was canceled or reached its deadline. It is
// deliberately NOT an alarm and NOT a DeadlockError: cancellation is the
// caller giving up, and proves nothing about the program (the precision
// argument of §1 applies to deadlines exactly as to timeouts).
//
// Cause is the context's cause (context.Canceled, context.DeadlineExceeded,
// or whatever context.WithCancelCause recorded) and is exposed through
// Unwrap, so errors.Is(err, context.Canceled) and friends work across the
// whole error chain.
type CanceledError struct {
	TaskID       uint64 // 0 for a run-level cancellation
	TaskName     string
	PromiseID    uint64 // 0 when no specific wait was abandoned
	PromiseLabel string
	Cause        error
}

func (e *CanceledError) Error() string {
	switch {
	case e.PromiseID != 0:
		return fmt.Sprintf("core: wait canceled: task %s abandoned its wait on promise %s: %v",
			e.TaskName, e.PromiseLabel, e.Cause)
	case e.TaskID != 0:
		return fmt.Sprintf("core: task %s canceled: %v", e.TaskName, e.Cause)
	default:
		return fmt.Sprintf("core: run canceled: %v", e.Cause)
	}
}

// Unwrap exposes the context cause so errors.Is/As see through the
// cancellation.
func (e *CanceledError) Unwrap() error { return e.Cause }

// newCanceledError builds a CanceledError attributed to the abandoned
// wait. The task name and promise label are rendered here, eagerly,
// whether or not anyone reads the error; the cost stays off the
// uncancelled paths because only a cancelled wait calls this.
func newCanceledError(t *Task, s *pstate, cause error) *CanceledError {
	e := &CanceledError{Cause: cause}
	if t != nil {
		e.TaskID, e.TaskName = t.id, t.displayName()
	}
	if s != nil {
		e.PromiseID, e.PromiseLabel = s.id, s.displayLabel()
	}
	return e
}

// OwnershipError reports a violation of the ownership policy: a task tried
// to set or move a promise it does not currently own.
type OwnershipError struct {
	Op           string // "set" or "move"
	TaskID       uint64
	TaskName     string
	PromiseID    uint64
	PromiseLabel string
	OwnerID      uint64 // 0 when the promise has no owner (already fulfilled)
	OwnerName    string
}

func (e *OwnershipError) Error() string {
	owner := "no task (already fulfilled)"
	if e.OwnerID != 0 {
		owner = fmt.Sprintf("task %s", e.OwnerName)
	}
	return fmt.Sprintf("core: ownership violation: task %s cannot %s promise %s owned by %s",
		e.TaskName, e.Op, e.PromiseLabel, owner)
}

// DoubleSetError reports a second fulfilment of a promise. Fulfilling a
// promise twice is a runtime error in every mode, including Unverified:
// the paper relies on this pre-existing property of promises.
type DoubleSetError struct {
	TaskID       uint64
	TaskName     string
	PromiseID    uint64
	PromiseLabel string
}

func (e *DoubleSetError) Error() string {
	return fmt.Sprintf("core: double set: task %s set promise %s, which was already fulfilled",
		e.TaskName, e.PromiseLabel)
}

// OmittedSetError reports that a task terminated while still owning one or
// more unfulfilled promises (rule 3 of the ownership policy). Blame is
// attributable: the offending task and every outstanding promise are
// named, and each of those promises is completed with a
// BrokenPromiseError whose Cause is this error (or the task's own
// failure), so its consumers unblock (§6.2).
type OmittedSetError struct {
	TaskID   uint64
	Promises []AnyPromise // never empty; order unspecified
	taskName string       // the task's given name; "" renders as task-<id>
}

// TaskName returns the blamed task's diagnostic name.
func (e *OmittedSetError) TaskName() string { return taskName(e.TaskID, e.taskName) }

func (e *OmittedSetError) Error() string { return errText(e, 64+16*len(e.Promises)) }

func (e *OmittedSetError) writeTo(b *strings.Builder) {
	b.WriteString("core: omitted set: task ")
	writeTaskName(b, e.TaskID, e.taskName)
	b.WriteString(" terminated owning unfulfilled promise(s): ")
	for i, p := range e.Promises {
		if i > 0 {
			b.WriteString(", ")
		}
		s := p.state()
		writePromiseLabel(b, s.id, s.label)
	}
}

// BrokenPromiseError is delivered to any task blocked on (or later getting)
// a promise whose owner terminated without fulfilling it, or whose owner
// failed. It is the exceptional-completion cascade of §6.2: the runtime
// completes every leaked promise with this error so consumers unblock.
type BrokenPromiseError struct {
	PromiseID    uint64
	TaskID       uint64 // the task that leaked the promise
	Cause        error  // the leaking task's own failure, or its OmittedSetError
	promiseLabel string // "" renders as promise-<id>
	taskName     string // "" renders as task-<id>
}

// PromiseLabel returns the broken promise's diagnostic label.
func (e *BrokenPromiseError) PromiseLabel() string { return promiseLabel(e.PromiseID, e.promiseLabel) }

// TaskName returns the diagnostic name of the task that leaked the promise.
func (e *BrokenPromiseError) TaskName() string { return taskName(e.TaskID, e.taskName) }

func (e *BrokenPromiseError) Error() string { return errText(e, 256) }

func (e *BrokenPromiseError) writeTo(b *strings.Builder) {
	b.WriteString("core: broken promise ")
	writePromiseLabel(b, e.PromiseID, e.promiseLabel)
	b.WriteString(": owner task ")
	writeTaskName(b, e.TaskID, e.taskName)
	b.WriteString(" terminated without fulfilling it: ")
	if e.Cause == nil {
		b.WriteString("<nil>")
		return
	}
	writeErr(b, e.Cause)
}

// Unwrap exposes the cause so errors.Is/As can inspect cascades.
func (e *BrokenPromiseError) Unwrap() error { return e.Cause }

// CycleNode is one hop in a detected deadlock cycle: Task is blocked
// awaiting Promise, and Promise is owned by the Task of the next node.
type CycleNode struct {
	TaskID       uint64
	PromiseID    uint64
	taskName     string // "" renders as task-<id>
	promiseLabel string // "" renders as promise-<id>
}

// TaskName returns the blocked task's diagnostic name.
func (n CycleNode) TaskName() string { return taskName(n.TaskID, n.taskName) }

// PromiseLabel returns the awaited promise's diagnostic label.
func (n CycleNode) PromiseLabel() string { return promiseLabel(n.PromiseID, n.promiseLabel) }

// cycleNode is the hop "t awaits s", holding only the names given at
// creation.
func cycleNode(t *Task, s *pstate) CycleNode {
	return CycleNode{TaskID: t.id, PromiseID: s.id, taskName: t.name, promiseLabel: s.label}
}

// DeadlockError reports a deadlock cycle detected by Algorithm 2, raised in
// the task whose Get completed the cycle. Cycle lists every task/promise
// pair in the cycle, starting with the detecting task.
type DeadlockError struct {
	Cycle []CycleNode
}

func (e *DeadlockError) Error() string { return errText(e, 48+40*len(e.Cycle)) }

func (e *DeadlockError) writeTo(b *strings.Builder) {
	b.WriteString("core: deadlock cycle of ")
	writeUint(b, uint64(len(e.Cycle)))
	b.WriteString(" task(s): ")
	for i, n := range e.Cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString("task ")
		writeTaskName(b, n.TaskID, n.taskName)
		b.WriteString(" awaits ")
		writePromiseLabel(b, n.PromiseID, n.promiseLabel)
	}
	if len(e.Cycle) > 0 {
		b.WriteString(" -> owned by task ")
		writeTaskName(b, e.Cycle[0].TaskID, e.Cycle[0].taskName)
	}
}

// Report is a run's ordered alarm report: the errors its tasks recorded,
// one entry each, in the order they were recorded. A task that failed
// and also leaked promises records its own error and then its
// OmittedSetError as two entries, and both are recorded before the
// broken-promise cascade they cause, so every cause precedes its effects.
//
// Runtime.Err returns the report of the whole run, and Task.Wait a
// report of a task's own two entries when it has both. Error renders
// the entries one per line, into one builder, exactly as errors.Join
// would; Unwrap exposes them, so errors.Is and errors.As find every
// part.
type Report struct {
	errs []error
}

// reportEntryHint is the text length Report.Error reserves per entry: it
// covers Listing 1's report, whose cascade repeats the cycle, in one
// allocation.
const reportEntryHint = 128

func (r *Report) Error() string { return errText(r, reportEntryHint*len(r.errs)) }

// Unwrap returns the report's entries, in order. The slice is the
// report's own; callers must not modify it.
func (r *Report) Unwrap() []error { return r.errs }

func (r *Report) writeTo(b *strings.Builder) {
	for i, e := range r.errs {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeErr(b, e)
	}
}

// errText renders err into a builder that reserves hint bytes up front.
func errText(err error, hint int) string {
	var b strings.Builder
	b.Grow(hint)
	writeErr(&b, err)
	return b.String()
}

// writeErr writes err's text into b. The report types write in place,
// rendering default names straight into b; any other error is written
// through its Error method. The switch calls each writer directly, so b
// stays on its caller's stack.
func writeErr(b *strings.Builder, err error) {
	switch e := err.(type) {
	case *Report:
		e.writeTo(b)
	case *DeadlockError:
		e.writeTo(b)
	case *OmittedSetError:
		e.writeTo(b)
	case *BrokenPromiseError:
		e.writeTo(b)
	default:
		b.WriteString(err.Error())
	}
}

// taskName is a task's diagnostic name: the given name, or the default
// "task-<id>", built by concatenation.
func taskName(id uint64, name string) string {
	if name != "" {
		return name
	}
	return "task-" + strconv.FormatUint(id, 10)
}

// promiseLabel is a promise's diagnostic label: the given label, or the
// default "promise-<id>".
func promiseLabel(id uint64, label string) string {
	if label != "" {
		return label
	}
	return "promise-" + strconv.FormatUint(id, 10)
}

// writeTaskName writes taskName(id, name) into b without building it.
func writeTaskName(b *strings.Builder, id uint64, name string) {
	if name != "" {
		b.WriteString(name)
		return
	}
	b.WriteString("task-")
	writeUint(b, id)
}

// writePromiseLabel writes promiseLabel(id, label) into b without
// building it.
func writePromiseLabel(b *strings.Builder, id uint64, label string) {
	if label != "" {
		b.WriteString(label)
		return
	}
	b.WriteString("promise-")
	writeUint(b, id)
}

// writeUint writes v in decimal into b, formatting it on the stack.
func writeUint(b *strings.Builder, v uint64) {
	var digits [20]byte
	b.Write(strconv.AppendUint(digits[:0], v, 10))
}

// PanicError wraps a panic recovered from a task function so it can be
// reported through the runtime's error channel like any other failure.
type PanicError struct {
	TaskID   uint64
	TaskName string
	Value    any
	Stack    []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: task %s panicked: %v", e.TaskName, e.Value)
}
