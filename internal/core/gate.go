package core

import "sync/atomic"

// waiter is one parked consumer on a gate: a link in the gate's
// intrusive stack plus the channel its consumer receives on.
//
// A task's record (Task.park) has a 1-slot channel and takes one token
// per wake; the task allocates it at its first real block and pushes the
// same record for every later block, so a blocked wait allocates nothing
// in steady state. A broadcast record (bcast) backs a channel-returning
// wait — Promise.Done, Task.Wait — and is closed instead, waking every
// receiver of that channel.
type waiter struct {
	next  *waiter
	ch    chan struct{}
	bcast bool
}

// gateSignalled is the head of every signalled gate. It is never woken
// and never linked: push refuses to link anything behind it.
var gateSignalled = &waiter{}

// closedGateChan is what a broadcast wait on a signalled gate returns:
// allocated once per process, closed immediately.
var closedGateChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// gate is a one-shot wakeup: a lock-free stack of parked waiters on one
// atomic pointer. Most promises in the paper's workloads (Conway, Heat,
// SmithWaterman) are fulfilled before anyone waits on them, so a gate
// that is signalled before any consumer arrives never allocates at all.
//
// Protocol, entirely on head:
//
//   - A consumer that must block pushes its record with a CAS loop
//     (push), which fails once the head is the gateSignalled sentinel.
//   - The producer Swaps in the sentinel and wakes every record the Swap
//     displaced (signal).
//
// CAS and Swap on the same atomic are totally ordered, so exactly one
// of the two sees the other: either the consumer's push lands first and
// the producer wakes that record, or the producer's Swap lands first and
// the consumer's push observes the sentinel and never blocks. There is
// no window for a lost wakeup.
type gate struct {
	head atomic.Pointer[waiter]
}

// signalled reports whether signal has run; a single atomic load.
func (g *gate) signalled() bool { return g.head.Load() == gateSignalled }

// push links w onto the gate and reports true, or reports false without
// linking when the gate is already signalled. A task's record may be
// pushed again only after the token of its previous push was received,
// so a record is linked in at most one gate at a time.
func (g *gate) push(w *waiter) bool {
	for {
		old := g.head.Load()
		if old == gateSignalled {
			return false
		}
		w.next = old
		if g.head.CompareAndSwap(old, w) {
			return true
		}
	}
}

// signal wakes every current and future waiter. Idempotent: once the
// sentinel is in place no record can be linked again, so a second signal
// displaces the sentinel itself and does nothing.
//
// The displaced list belongs to signal alone, but only until each record
// is woken: a woken task may at once push the same record onto another
// gate, rewriting its next. So next is read before the wake, never after.
func (g *gate) signal() {
	w := g.head.Swap(gateSignalled)
	if w == gateSignalled {
		return
	}
	for w != nil {
		next := w.next
		if w.bcast {
			close(w.ch)
		} else {
			// Never blocks: the slot was drained before the push. A record
			// its task abandoned on cancellation keeps this token unread.
			w.ch <- struct{}{}
		}
		w = next
	}
}

// wait returns a channel that is closed when the gate is signalled. On a
// signalled gate this is a single atomic load returning the shared closed
// channel; otherwise it links a fresh broadcast record, so every call on
// an unsignalled gate allocates its own channel.
func (g *gate) wait() <-chan struct{} {
	if g.signalled() {
		return closedGateChan
	}
	w := &waiter{ch: make(chan struct{}), bcast: true}
	if !g.push(w) {
		return closedGateChan
	}
	return w.ch
}
