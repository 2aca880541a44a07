package collections

// The asynchronous promise API of §1.1, implemented on top of the
// synchronous one exactly as the paper observes is possible: supplyAsync
// binds a new task's return value to a promise (see Go/Future), and then
// schedules a new task to operate on a promise's value once available.
// Every combinator spawns a real task owning its output promise, so the
// ownership policy and the deadlock detector see every dependence edge.

import "repro/internal/core"

// Then schedules f to run on p's value once it is available, returning a
// promise for f's result (CompletableFuture.thenApply). The continuation
// task owns the result promise; failures of p or of f complete the result
// exceptionally.
func Then[T, U any](t *core.Task, p *core.Promise[T], f func(*core.Task, T) (U, error)) (*core.Promise[U], error) {
	fut, err := Go(t, func(c *core.Task) (U, error) {
		v, err := p.Get(c)
		if err != nil {
			var zero U
			return zero, err
		}
		return f(c, v)
	})
	if err != nil {
		return nil, err
	}
	return fut.Promise(), nil
}

// ThenCombine schedules f on the values of both promises once both are
// available (CompletableFuture.thenCombine).
func ThenCombine[A, B, C any](t *core.Task, pa *core.Promise[A], pb *core.Promise[B], f func(*core.Task, A, B) (C, error)) (*core.Promise[C], error) {
	fut, err := Go(t, func(c *core.Task) (C, error) {
		var zero C
		a, err := pa.Get(c)
		if err != nil {
			return zero, err
		}
		b, err := pb.Get(c)
		if err != nil {
			return zero, err
		}
		return f(c, a, b)
	})
	if err != nil {
		return nil, err
	}
	return fut.Promise(), nil
}

// AsyncAwait spawns a data-driven task (§1.1's data-driven future, after
// Habanero-Java): the deps are declared up front and f runs only after all
// of them are fulfilled. Because a data-driven task performs all of its
// (declared) waits before executing any user code, programs whose only
// waits go through AsyncAwait cannot deadlock on those edges — the
// restriction that makes DDFs attractive, here checked dynamically by the
// same detector as everything else.
//
// moved promises transfer to the new task as in Task.Async.
func AsyncAwait(t *core.Task, deps []core.AnyPromise, f core.TaskFunc, moved ...core.Movable) (*core.Task, error) {
	return t.AsyncNamed("data-driven", func(c *core.Task) error {
		for _, d := range deps {
			if err := core.Await(c, d); err != nil {
				return err
			}
		}
		return f(c)
	}, moved...)
}
