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

import "sync"

// verifyAwait publishes t0's intent to wait on p0 and traverses the
// dependence chain of alternating owner / waitingOn edges. It returns nil
// when it is safe for t0 to block, or a DeadlockError when this wait
// completes a cycle. In the error case t0's waitingOn has been reset.
//
// Each line-13 hop records (t_{i+1}, p_{i+1}) in a hop log, so the
// DeadlockError reports exactly the cycle the traversal proved (Theorem
// 5.1) rather than re-walking edges another alarmer may already be
// tearing down. Logs are recycled (hopLogs), so a warm traversal
// allocates nothing.
func (t0 *Task) verifyAwait(p0 *pstate) error {
	// Line 3: the waits-for edge is created BEFORE verification. If two
	// tasks concurrently close a cycle, the paper's t* argument guarantees
	// the last to publish sees the whole cycle.
	t0.waitingOn.Store(p0)

	var hops *[]hop // taken at the first hop
	pi := p0
	ti := pi.owner.Load() // line 6: t_{i+1}
	for ti != t0 {
		if ti == nil {
			// p_i has been fulfilled (or ownership is untracked): progress
			// is being made; commit to the wait.
			putHops(hops)
			return nil
		}
		pnext := ti.waitingOn.Load() // line 9
		if pnext == nil {
			// t_{i+1} is not blocked: progress is being made.
			putHops(hops)
			return nil
		}
		// Line 11: double-read of the owner. If the owner of p_i changed
		// between line 6/13 and here, the prefix of the chain is stale —
		// the promise moved to a new task or was fulfilled, so progress is
		// being made and the check can be abandoned safely.
		if pi.owner.Load() != ti {
			putHops(hops)
			return nil
		}
		if hops == nil {
			hops = hopLogs.Get().(*[]hop)
		}
		*hops = append(*hops, hop{ti, pnext})
		pi = pnext
		ti = pi.owner.Load() // line 13
	}
	// Loop condition failed: t0 transitively awaits itself (line 15).
	t0.waitingOn.Store(nil)
	n := 1
	if hops != nil {
		n += len(*hops)
	}
	cyc := make([]CycleNode, 1, n)
	cyc[0] = cycleNode(t0, p0)
	if hops != nil {
		for _, h := range *hops {
			cyc = append(cyc, cycleNode(h.t, h.p))
		}
		putHops(hops)
	}
	return &DeadlockError{Cycle: cyc}
}

// hop is one step of a verifyAwait traversal: task t, reached as the
// owner of the previous promise, is blocked on p.
type hop struct {
	t *Task
	p *pstate
}

// hopLogs recycles verifyAwait's hop logs. A traversal takes one only
// when it walks past a blocked owner and returns it when it ends, so the
// memory held for logs follows the traversals in progress, not the
// number of tasks, and a returned log keeps no task reachable.
var hopLogs = sync.Pool{New: func() any { return new([]hop) }}

// putHops clears a hop log and returns it to hopLogs; nil is a no-op.
func putHops(h *[]hop) {
	if h == nil {
		return
	}
	clear(*h)
	*h = (*h)[:0]
	hopLogs.Put(h)
}
