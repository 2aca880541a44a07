package core

import (
	"errors"
	"fmt"
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
// attributable: the offending task and the outstanding promises are named.
//
// When the runtime tracks ownership with a counter instead of a list
// (TrackCounter), only Count is populated: the bug is still detected the
// moment it occurs, but the promises cannot be named — the space/blame
// trade-off discussed in §6.2 of the paper.
type OmittedSetError struct {
	TaskID   uint64
	TaskName string
	Promises []AnyPromise // nil under TrackCounter; order unspecified
	Count    int
}

func (e *OmittedSetError) Error() string {
	if len(e.Promises) == 0 {
		return fmt.Sprintf("core: omitted set: task %s terminated owning %d unfulfilled promise(s)",
			e.TaskName, e.Count)
	}
	labels := make([]string, len(e.Promises))
	for i, p := range e.Promises {
		labels[i] = p.Label()
	}
	return fmt.Sprintf("core: omitted set: task %s terminated owning unfulfilled promise(s): %s",
		e.TaskName, strings.Join(labels, ", "))
}

// BrokenPromiseError is delivered to any task blocked on (or later getting)
// a promise whose owner terminated without fulfilling it, or whose owner
// failed. It is the exceptional-completion cascade of §6.2: the runtime
// completes every leaked promise with this error so consumers unblock.
type BrokenPromiseError struct {
	PromiseID    uint64
	PromiseLabel string
	TaskID       uint64 // the task that leaked the promise
	TaskName     string
	Cause        error // the leaking task's own failure, or its OmittedSetError
}

func (e *BrokenPromiseError) Error() string {
	return fmt.Sprintf("core: broken promise %s: owner task %s terminated without fulfilling it: %v",
		e.PromiseLabel, e.TaskName, e.Cause)
}

// Unwrap exposes the cause so errors.Is/As can inspect cascades.
func (e *BrokenPromiseError) Unwrap() error { return e.Cause }

// CycleNode is one hop in a detected deadlock cycle: Task is blocked
// awaiting Promise, and Promise is owned by the Task of the next node.
type CycleNode struct {
	TaskID       uint64
	TaskName     string
	PromiseID    uint64
	PromiseLabel string
}

// DeadlockError reports a deadlock cycle detected by Algorithm 2, raised in
// the task whose Get completed the cycle. Cycle lists every task/promise
// pair in the cycle, starting with the detecting task.
type DeadlockError struct {
	Cycle []CycleNode
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: deadlock cycle of %d task(s): ", len(e.Cycle))
	for i, n := range e.Cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "task %s awaits %s", n.TaskName, n.PromiseLabel)
	}
	if len(e.Cycle) > 0 {
		fmt.Fprintf(&b, " -> owned by task %s", e.Cycle[0].TaskName)
	}
	return b.String()
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
