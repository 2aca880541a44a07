package core

import "sync/atomic"

// closedGateChan is the channel every signalled gate resolves to: allocated
// once per process, closed immediately. Its address doubles as the
// "signalled" sentinel in gate.ch, so a gate that is signalled before any
// consumer blocks never allocates a channel at all.
var closedGateChan = func() *chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return &ch
}()

// gate is a lazily-allocated one-shot wakeup. It replaces the eagerly
// allocated `done chan struct{}` that promises and tasks used to carry:
// most promises in the paper's workloads (Conway, Heat, SmithWaterman) are
// fulfilled before anyone waits on them, so paying a channel allocation per
// promise buys nothing. With a gate, the channel exists only if a consumer
// actually has to block.
//
// Protocol, entirely on one atomic pointer:
//
//   - A consumer that must block installs a fresh channel with
//     CAS(nil, &ch) and receives on it (wait).
//   - The producer Swaps in the closed sentinel and closes whatever
//     channel the Swap displaced (signal).
//
// Because CAS and Swap on the same atomic are totally ordered, exactly one
// of the two sees the other: either the consumer's CAS lands first and the
// producer closes that channel, or the producer's Swap lands first and the
// consumer observes the sentinel (a closed channel) and never blocks.
// There is no window for a lost wakeup.
type gate struct {
	ch atomic.Pointer[chan struct{}]
}

// signal wakes every current and future waiter. Idempotent: once the
// sentinel is in place a waiter can never install a channel again (the CAS
// from nil fails forever), so a second signal finds the sentinel and does
// nothing. Note that a waiter whose wait() lands after the signal is
// admitted via the sentinel without ever installing a channel, so the
// displaced pointer says nothing about whether waiters exist.
func (g *gate) signal() {
	if old := g.ch.Swap(closedGateChan); old != nil && old != closedGateChan {
		close(*old)
	}
}

// wait returns a channel that is closed when the gate is signalled,
// installing one if the gate has not been signalled yet. If the gate was
// already signalled this is a single atomic load returning the shared
// closed channel.
func (g *gate) wait() <-chan struct{} {
	for {
		if p := g.ch.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if g.ch.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// signalled reports whether signal has run. Note the one-sidedness: false
// may be stale, true is definitive (Swap is the linearization point).
func (g *gate) signalled() bool { return g.ch.Load() == closedGateChan }
