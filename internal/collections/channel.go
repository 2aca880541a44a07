package collections

import (
	"context"

	"repro/internal/core"
)

// payload is one link of the channel's promise chain: a value plus the
// promise carrying the next link. ok=false marks end of stream.
type payload[T any] struct {
	value T
	next  *core.Promise[payload[T]]
	ok    bool
}

// Channel behaves like a promise that can be used repeatedly: the nth Recv
// obtains the value from the nth Send (the paper's Listing 4). It is a
// single-producer, single-consumer primitive: at any moment one task holds
// the sending end (by owning the current producer promise) and one task
// uses the receiving end. The sending end moves between tasks by moving
// the Channel in an Async call — Channel implements core.Movable, and its
// Promises method reports the one promise that must travel, whatever link
// the chain has reached.
type Channel[T any] struct {
	// linkLabel names every link after the first ("<label>[+]"). It is
	// built once, by NewChannelNamed, so a Send allocates only its link.
	linkLabel string
	producer  *core.Promise[payload[T]]
	consumer  *core.Promise[payload[T]]
}

// NewChannel creates a channel whose sending end is owned by t.
func NewChannel[T any](t *core.Task) *Channel[T] {
	return NewChannelNamed[T](t, "chan")
}

// NewChannelNamed is NewChannel with a diagnostic label used for the
// underlying promises.
func NewChannelNamed[T any](t *core.Task, label string) *Channel[T] {
	p := core.NewPromiseNamed[payload[T]](t, label+"[0]")
	return &Channel[T]{linkLabel: label + "[+]", producer: p, consumer: p}
}

// Promises implements core.Movable: moving the channel moves the current
// producer promise, i.e. the sending end. The receiving end needs no
// ownership (gets are free for any task) and so moves implicitly.
func (c *Channel[T]) Promises() []core.AnyPromise {
	return []core.AnyPromise{c.producer}
}

// Send delivers v to the nth Recv, fulfilling the current producer promise
// and allocating the next link (owned by t). Only the task currently
// owning the sending end may Send.
func (c *Channel[T]) Send(t *core.Task, v T) error {
	next := core.NewPromiseNamed[payload[T]](t, c.linkLabel)
	if err := c.producer.Set(t, payload[T]{value: v, next: next, ok: true}); err != nil {
		// The send was rejected (not the owner / already closed): don't
		// leave the freshly allocated link owned and unfulfillable.
		_ = next.SetError(t, err)
		return err
	}
	c.producer = next
	return nil
}

// Close ends the stream: every subsequent Recv returns ok=false. After
// Close the channel owns no promises ("no remaining promises" in
// Listing 4), so the holding task can terminate cleanly.
func (c *Channel[T]) Close(t *core.Task) error {
	return c.producer.Set(t, payload[T]{ok: false})
}

// Recv blocks until the next Send (returning its value and ok=true) or
// Close (returning ok=false). Receiving past Close keeps returning
// ok=false.
func (c *Channel[T]) Recv(t *core.Task) (T, bool, error) {
	return c.RecvContext(nil, t)
}

// RecvContext is Recv bounded by ctx: the wait for the next link aborts
// with a core.CanceledError when ctx is canceled or reaches its deadline.
// A canceled receive consumes nothing — the receiving end stays parked on
// the same link, so a later Recv (with a live context) picks up exactly
// where this one gave up. A nil ctx makes RecvContext exactly Recv.
func (c *Channel[T]) RecvContext(ctx context.Context, t *core.Task) (T, bool, error) {
	pl, err := c.consumer.GetContext(ctx, t)
	if err != nil {
		var zero T
		return zero, false, err
	}
	if !pl.ok {
		// Leave consumer parked on the terminal (fulfilled) promise so
		// further Recvs keep reporting closure.
		var zero T
		return zero, false, nil
	}
	c.consumer = pl.next
	return pl.value, true, nil
}

// TryRecv is the non-blocking Recv: it returns (value, true, nil) if a
// Send has already arrived, (zero, false, nil) if the stream is closed or
// no value is ready, and an error if the pending link completed
// exceptionally. It never blocks and never creates a waits-for edge —
// just the promise fast path's single atomic load — so pollers can drain
// a channel without engaging the deadlock detector.
func (c *Channel[T]) TryRecv() (T, bool, error) {
	var zero T
	pl, ok, err := c.consumer.TryGetErr()
	if err != nil {
		return zero, false, err
	}
	if !ok || !pl.ok {
		return zero, false, nil
	}
	c.consumer = pl.next
	return pl.value, true, nil
}

// MustRecv is Recv panicking on error, for pipeline code where an error is
// a bug; the panic is recovered by the task wrapper.
func (c *Channel[T]) MustRecv(t *core.Task) (T, bool) {
	v, ok, err := c.Recv(t)
	if err != nil {
		panic(err)
	}
	return v, ok
}

// MustSend is Send panicking on error.
func (c *Channel[T]) MustSend(t *core.Task, v T) {
	if err := c.Send(t, v); err != nil {
		panic(err)
	}
}
