package core

// Slab promise allocation.
//
// NewPromise is one heap object per promise — already the floor for
// individually allocated cells, and after the packed-word redesign it IS
// the setget micro's single alloc/op. A PromiseArena goes below that
// floor by bump-allocating promises out of slabs of arenaBlock, so the
// amortized cost is 1/arenaBlock heap allocations per promise, and by
// recycling fulfilled promises where that is sound (see Recycle).

// arenaBlock is the slab size. 64 promises per slab puts the amortized
// allocation cost near zero without making the slab so large that a
// mostly-idle arena pins significant memory: a Promise[struct{}] slab is
// ~6 KiB.
const arenaBlock = 64

// PromiseArena is a slab allocator for promises of one payload type.
// Promises it returns are ordinary *Promise[T] — owned, policy-checked,
// traced, and detector-visible exactly like NewPromise's (they share
// initPromise) — but they are carved out of shared slabs, so their
// LIFETIME is the arena's: a slab stays reachable as long as any promise
// in it does, and nothing is individually freed.
//
// An arena is NOT thread-safe. Confine it to one task at a time — the
// intended shape is one arena per task, or handed off at spawn the way
// owned promises are. The promises themselves are as concurrent as any
// other promise.
type PromiseArena[T any] struct {
	r    *Runtime
	slab []Promise[T]
	next int
	free []*Promise[T]
}

// NewPromiseArena creates an arena allocating against t's runtime.
func NewPromiseArena[T any](t *Task) *PromiseArena[T] {
	return &PromiseArena[T]{r: t.rt}
}

// New allocates a promise owned by t (rule 1), from the recycle list if
// possible, else by bumping the current slab.
func (a *PromiseArena[T]) New(t *Task) *Promise[T] {
	if t.rt != a.r {
		panic("core: PromiseArena used with a task from a different runtime")
	}
	var p *Promise[T]
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		*p = Promise[T]{} // scrub at reuse, not at Recycle — see Recycle
	} else {
		if a.next == len(a.slab) {
			a.slab = make([]Promise[T], arenaBlock)
			a.next = 0
			if m := cmet(); m != nil {
				m.arenaSlabs.Inc()
			}
		}
		p = &a.slab[a.next]
		a.next++
	}
	initPromise(p, t, "")
	return p
}

// Recycle offers a promise back to the arena for reuse by a later New.
// It returns true only when the promise was actually accepted, which
// requires BOTH of:
//
//   - The promise is fulfilled and its setter is done with it. An owned,
//     unfulfilled promise is live policy state; reusing it would corrupt
//     rule bookkeeping. And Set still signals the wake gate after the
//     fulfilled store a reader can already see, so the arena waits for
//     the gate's signalled sentinel, the setter's last access.
//   - The runtime is Unverified. Under the verified modes a fulfilled
//     promise must stay fulfilled-and-ownerless FOREVER: Algorithm 2's
//     double-read of the owner field tolerates a stale waitingOn
//     precisely because a fulfilled promise can never be re-owned. A
//     reused promise could be owned by the same task again, and the
//     double-read would then vouch for a waitingOn value read while that
//     task did not own it (pointer ABA). Promises carry no generation
//     counter to tell the two lives apart — one would put a word and a
//     fence on the Set/Get hot path — so the arena refuses instead.
//     Unverified mode has no owner fields and no detector, so reuse is
//     safe there.
//
// A false return is not an error — the promise simply stays on its slab
// until the arena as a whole is dropped. The caller must guarantee no
// goroutine still holds a reference to a promise it recycles: a
// straggler Get on a recycled promise is a use-after-reuse bug, exactly
// like reading any other recycled object.
func (a *PromiseArena[T]) Recycle(p *Promise[T]) bool {
	if a.r.mode != Unverified || !p.s.wake.signalled() {
		return false
	}
	a.free = append(a.free, p)
	if m := cmet(); m != nil {
		m.arenaRecycled.Inc()
	}
	return true
}
