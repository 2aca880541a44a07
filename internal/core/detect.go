package core

// This file is Algorithm 2 of the paper: lock-free deadlock-cycle
// detection executed inside Get, before the task commits to blocking.
//
// Memory-model notes (§5.1 of the paper, mapped to Go):
//
//   Requirement 1 — a total order over all waitingOn writes, with full
//   visibility across it. Go's sync/atomic operations are sequentially
//   consistent with respect to each other, which subsumes the TSO fence /
//   C++ seq_cst tagging the paper prescribes for the line-3 store.
//
//   Requirement 2 — release/acquire pairing so that a task observed via
//   waitingOn is also observed with the owner writes that happened before
//   it. Again implied by Go atomics' seq-cst ordering.
//
//   Requirement 3 — the waitingOn reset after a successful wait must not
//   become visible before the fulfilment. Set publishes in two steps:
//   the stateFulfilled store (the release making the payload visible),
//   then the wake-gate signal, whose Swap installs the signalled sentinel
//   before it wakes the displaced waiters. Get performs the reset only
//   after the gate admits it, which happens in one of two ways —
//   receiving the wake token on its parked waiter record (the receive
//   happens-after the send, which follows the Swap), or a push that loads
//   the sentinel the Swap stored (ordered by the atomics' total order).
//   In both cases the reset is ordered after the fulfilment for every
//   observer. TestRequirement3Ordering exercises this under the race
//   detector.

// verifyAwait publishes t0's intent to wait on p0 and traverses the
// dependence chain of alternating owner / waitingOn edges. It returns nil
// when it is safe for t0 to block, or a DeadlockError when this wait
// completes a cycle. In the error case t0's waitingOn has been reset.
//
// The traversal allocates nothing; diagnostics are reconstructed only on
// detection, when the cycle is frozen (every member is blocked).
func (t0 *Task) verifyAwait(p0 *pstate) error {
	// Line 3: the waits-for edge is created BEFORE verification. If two
	// tasks concurrently close a cycle, the paper's t* argument guarantees
	// the last to publish sees the whole cycle.
	t0.waitingOn.Store(p0)

	pi := p0
	ti := pi.owner.Load() // line 6: t_{i+1}
	for ti != t0 {
		if ti == nil {
			// p_i has been fulfilled (or ownership is untracked): progress
			// is being made; commit to the wait.
			return nil
		}
		pnext := ti.waitingOn.Load() // line 9
		if pnext == nil {
			// t_{i+1} is not blocked: progress is being made.
			return nil
		}
		// Line 11: double-read of the owner. If the owner of p_i changed
		// between line 6/13 and here, the prefix of the chain is stale —
		// the promise moved to a new task or was fulfilled, so progress is
		// being made and the check can be abandoned safely.
		if pi.owner.Load() != ti {
			return nil
		}
		pi = pnext
		ti = pi.owner.Load() // line 13
	}
	// Loop condition failed: t0 transitively awaits itself (line 15).
	t0.waitingOn.Store(nil)
	return t0.buildCycle(p0)
}

// buildCycle reconstructs the detected cycle for diagnostics. At this
// point every other task in the cycle is blocked (its waitingOn is set and
// it owns the previous promise), so the fields are stable; the walk is
// nevertheless defensive, truncating if the structure mutates underneath
// it (which can only happen if the program races on in ways that already
// broke the cycle — the alarm itself remains valid per Theorem 5.1).
func (t0 *Task) buildCycle(p0 *pstate) *DeadlockError {
	const maxNodes = 1 << 20
	cyc := []CycleNode{{TaskID: t0.id, TaskName: t0.displayName(), PromiseID: p0.id, PromiseLabel: p0.displayLabel()}}
	t := p0.owner.Load()
	for t != nil && t != t0 && len(cyc) < maxNodes {
		p := t.waitingOn.Load()
		if p == nil {
			break
		}
		cyc = append(cyc, CycleNode{TaskID: t.id, TaskName: t.displayName(), PromiseID: p.id, PromiseLabel: p.displayLabel()})
		t = p.owner.Load()
	}
	return &DeadlockError{Cycle: cyc}
}
