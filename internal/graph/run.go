package graph

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Admission-saturation backoff: start small and double to a cap. These
// retries are submit-side only (the body never ran), so they are safe
// at any rate; the backoff exists to stop a big graph from busy-spinning
// against a full pool.
const (
	admissionBackoffBase = time.Millisecond
	admissionBackoffCap  = 64 * time.Millisecond
)

// run is one Graph.Run execution. No goroutine is started per node: a
// launched node's attempts are sessions whose completion hooks
// (serve.WithOnDone) take the node's next step on the goroutine that
// finished the session, and backoffs are timers. Every node state
// transition happens under mu, which is what makes the
// exactly-one-terminal-outcome invariant structural: a node is launched
// only while Pending, canceled by a cascade only while Pending, and
// finished only by the step of its single in-flight attempt.
type run struct {
	g    *Graph
	pool *serve.Pool
	ctx  context.Context

	mu sync.Mutex
	wg sync.WaitGroup

	// rootErr is the first terminal failure cause (never an ErrUpstream
	// from a cascade): the error Run returns.
	rootErr error

	admissionRetries atomic.Int64
}

// Run executes the graph over the pool and blocks until every node has
// reached a terminal state, returning the per-node results. ctx covers
// the whole graph: cancelling it cancels running sessions through their
// submit contexts and cascades cancellation into everything not yet
// submitted. Run may be called once per Graph; a second call errors.
//
// The returned error is the root failure (nil when every node
// succeeded); the *GraphResult is returned in both cases.
func (g *Graph) Run(ctx context.Context, pool *serve.Pool) (*GraphResult, error) {
	if !g.ran.CompareAndSwap(false, true) {
		return nil, errGraphReran
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{g: g, pool: pool, ctx: ctx}
	start := time.Now()

	var ready []*Node
	r.mu.Lock()
	for _, n := range g.order {
		if n.waiting == 0 {
			ready = append(ready, r.launchLocked(n))
		}
	}
	r.mu.Unlock()
	r.startAll(ready)
	r.wg.Wait()

	res := &GraphResult{
		Graph: g.name,
		Start: start,
		End:   time.Now(),
		Nodes: make(map[string]NodeResult, len(g.order)),
		Err:   r.rootErr,
	}
	res.Elapsed = res.End.Sub(res.Start)
	var retries int64
	for _, n := range g.order {
		nr := NodeResult{
			Name:      n.name,
			State:     n.state,
			StateName: n.state.String(),
			Verdict:   n.verdict,
			Attempts:  n.attempts,
			BodyRuns:  n.bodyRuns.Load(),
			Err:       n.err,
			Output:    n.out,
			Start:     n.start,
			End:       n.end,
		}
		if !n.end.IsZero() && !n.start.IsZero() {
			nr.Duration = n.end.Sub(n.start)
		}
		if n.attempts > 1 {
			retries += int64(n.attempts - 1)
		}
		switch n.state {
		case NodeSucceeded:
			res.Succeeded++
		case NodeFailed:
			res.Failed++
		case NodeCanceled:
			res.Canceled++
		default:
			// Scheduler bug: a node was orphaned. Leave the state visible
			// for the harness's orphan invariant, but resolve the future so
			// no external watcher hangs on it.
			n.future.fail(errors.New("graph: internal: node orphaned by scheduler"))
		}
		res.Nodes[n.name] = nr
	}
	res.Retries = retries
	res.AdmissionRetries = r.admissionRetries.Load()
	res.CriticalPath, res.CriticalPathTime = criticalPath(g, res.Nodes)
	countGraph(res)
	return res, res.Err
}

// launchLocked transitions a Pending node to Running and counts it
// toward Run's wait; the caller submits its first attempt (startAll)
// once it has released r.mu. Caller holds r.mu.
func (r *run) launchLocked(n *Node) *Node {
	n.state = NodeRunning
	n.start = time.Now()
	r.wg.Add(1)
	return n
}

// startAll submits the first attempt of each launched node. Never called
// with r.mu held: Submit may run a hook that takes it.
func (r *run) startAll(launched []*Node) {
	for _, n := range launched {
		a := &attempts{r: r, n: n, name: r.g.name + "/" + n.name, inputs: r.gather(n)}
		a.opts = append(append(make([]serve.Option, 0, len(n.submit)+2), n.submit...), serve.WithOnDone(a.done))
		if len(n.runtime) > 0 {
			a.opts = append(a.opts, serve.WithRuntime(n.runtime...))
		}
		a.next()
	}
}

// gather resolves the node's declared inputs. Called only after every
// dependency future has fulfilled (the launch precondition), so
// TryValue never misses.
func (r *run) gather(n *Node) Inputs {
	vals := make(map[string]any, len(n.deps))
	for _, dep := range n.deps {
		v, ok := r.g.nodes[dep].future.TryValue()
		if !ok {
			// Launch precondition violated — scheduler bug, surface loudly.
			panic("graph: node launched before input " + dep + " fulfilled")
		}
		vals[dep] = v
	}
	return Inputs{vals: vals}
}

// attempts is a launched node's retry loop, driven by events instead of
// a goroutine: next submits an attempt, the attempt session's completion
// hook (done) or a synchronous rejection classifies it, and a retry is
// submitted at once or from a backoff timer, until exactly one terminal
// transition. One attempt is in flight at a time, and each step is
// ordered after the previous one by the session, hook, or timer that
// hands control on, so the fields need no lock.
type attempts struct {
	r      *run
	n      *Node
	name   string // session name
	inputs Inputs
	opts   []serve.Option // the node's submit options plus the hook

	attempt int
	actx    context.Context    // this attempt's scope: r.ctx plus the node timeout
	release context.CancelFunc // releases actx's timer
	admit   time.Duration      // next admission-saturation backoff
	out     any                // this attempt's body output
}

// next starts the node's next attempt.
func (a *attempts) next() {
	a.attempt++
	a.r.mu.Lock()
	a.n.attempts = a.attempt
	a.r.mu.Unlock()
	if a.attempt > 1 {
		countRetry()
	}
	a.actx, a.release = a.r.ctx, func() {}
	if a.n.timeout > 0 {
		a.actx, a.release = context.WithTimeoutCause(a.r.ctx, a.n.timeout, ErrNodeTimeout)
	}
	a.admit = admissionBackoffBase
	a.submit()
}

// submit sends the current attempt to the pool. Admission saturation
// never consumes an attempt — the body never ran — so it re-submits from
// a capped-exponential backoff timer, counting each absorbed rejection
// (AdmissionRetries, graph_admission_retries_total). Any other rejection
// is classified like a verdict. On acceptance the session's hook owns
// the next step, so nothing here touches a after Submit succeeds.
func (a *attempts) submit() {
	_, err := a.r.pool.Submit(a.actx, a.name, a.body, a.opts...)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrPoolSaturated):
		a.r.admissionRetries.Add(1)
		countAdmissionRetry()
		d := a.admit
		if a.admit *= 2; a.admit > admissionBackoffCap {
			a.admit = admissionBackoffCap
		}
		afterUnless(a.actx, d, a.submit, func() { a.rejected(context.Cause(a.actx)) })
	default:
		a.rejected(err)
	}
}

// body is the attempt session's program: the node function over its
// resolved inputs.
func (a *attempts) body(t *core.Task) error {
	a.n.bodyRuns.Add(1)
	v, err := a.n.fn(t, a.inputs)
	if err != nil {
		return err
	}
	a.out = v
	return nil
}

// done is the attempt session's completion hook.
func (a *attempts) done(s *serve.Session) {
	a.release()
	v, err := s.Verdict(), s.Err()
	switch {
	case v == serve.VerdictClean:
		a.r.succeed(a.n, a.out)
	case v == serve.VerdictCanceled && !errors.Is(err, ErrNodeTimeout):
		// Three distinct cancellations reach a session: the graph context
		// (terminal for the node), the pool closing under it (terminal,
		// typed serve.ErrPoolClosed), and the node's own per-attempt
		// timeout — which is a FAILED attempt, retried while budget
		// remains.
		a.r.cancel(a.n, err)
	default:
		// Deadlock / policy / failed / attempt-timeout.
		a.retry(v, err)
	}
}

// rejected classifies an attempt the pool refused to accept.
func (a *attempts) rejected(err error) {
	a.release()
	switch {
	case errors.Is(err, serve.ErrPoolClosed):
		// A retry submitted during pool drain gets the prompt typed
		// rejection and the node terminates — it must never hang a graph.
		a.r.cancel(a.n, err)
	case a.r.ctx.Err() != nil:
		a.r.cancel(a.n, context.Cause(a.r.ctx))
	case errors.Is(err, ErrNodeTimeout):
		// The attempt's deadline expired before admission.
		a.retry(serve.VerdictCanceled, err)
	default:
		// Synchronous rejection (e.g. deadline-infeasible admission):
		// consumes an attempt like any other failure.
		a.retry(serve.VerdictFailed, err)
	}
}

// retry fails the node once its attempt budget is spent, and otherwise
// submits the next attempt after the policy's backoff. Cancelling the
// graph during a backoff cancels the node at once.
func (a *attempts) retry(v serve.Verdict, err error) {
	r, n := a.r, a.n
	if a.attempt >= n.retry.maxAttempts() {
		r.fail(n, v, err)
		return
	}
	canceled := func() { r.cancel(n, context.Cause(r.ctx)) }
	d := n.retry.backoffFor(a.attempt)
	switch {
	case d > 0:
		afterUnless(r.ctx, d, a.next, canceled)
	case r.ctx.Err() != nil:
		canceled()
	default:
		a.next()
	}
}

// afterUnless runs fire once d has elapsed, or stop as soon as ctx ends
// first — exactly one of the two, each on its own timer or ctx-watch
// goroutine and never on the caller's. It replaces a sleep, so a backoff
// holds no goroutine while it waits.
func afterUnless(ctx context.Context, d time.Duration, fire, stop func()) {
	var (
		mu      sync.Mutex
		settled bool
		t       *time.Timer
		unwatch func() bool
	)
	// settle admits the first of the two events. Both callbacks run on
	// their own goroutines, so taking mu also orders them after the
	// assignments below.
	settle := func() bool {
		mu.Lock()
		defer mu.Unlock()
		won := !settled
		settled = true
		return won
	}
	mu.Lock()
	defer mu.Unlock()
	t = time.AfterFunc(d, func() {
		if settle() {
			unwatch()
			fire()
		}
	})
	unwatch = context.AfterFunc(ctx, func() {
		if settle() {
			t.Stop()
			stop()
		}
	})
}

// succeed is the clean terminal transition: record the output, fulfil
// the future, and hand newly-ready dependents to the pool.
func (r *run) succeed(n *Node, out any) {
	var ready []*Node
	r.mu.Lock()
	n.state = NodeSucceeded
	n.verdict = serve.VerdictClean
	n.err = nil
	n.out = out
	n.end = time.Now()
	countNode(NodeSucceeded, n.end.Sub(n.start))
	n.future.fulfill(out)
	for _, d := range n.down {
		if d.waiting--; d.waiting == 0 && d.state == NodePending {
			ready = append(ready, r.launchLocked(d))
		}
	}
	r.mu.Unlock()
	r.startAll(ready)
	r.wg.Done()
}

// fail is the retry-budget-exhausted terminal transition; it cascades
// cancellation into every transitive descendant.
func (r *run) fail(n *Node, v serve.Verdict, err error) {
	r.mu.Lock()
	n.state = NodeFailed
	n.verdict = v
	n.err = err
	n.end = time.Now()
	if r.rootErr == nil {
		r.rootErr = err
	}
	countNode(NodeFailed, n.end.Sub(n.start))
	n.future.fail(err)
	r.cascadeLocked(n, err)
	r.mu.Unlock()
	r.wg.Done()
}

// cancel is the terminal transition for a node that never got a verdict
// of its own — graph context ended, or the pool closed under it. It
// cascades exactly like a failure.
func (r *run) cancel(n *Node, cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	r.mu.Lock()
	n.state = NodeCanceled
	n.verdict = serve.VerdictCanceled
	n.err = cause
	n.end = time.Now()
	if r.rootErr == nil {
		r.rootErr = cause
	}
	countNode(NodeCanceled, 0)
	n.future.fail(cause)
	r.cascadeLocked(n, cause)
	r.mu.Unlock()
	r.wg.Done()
}

// cascadeLocked cancels every transitive descendant of root that is
// still Pending, tagging each with ErrUpstream{Node: root, Cause}. The
// walk recurses only through nodes it cancels itself: a descendant
// already canceled by an earlier cascade has already had its own
// subtree handled, and a Running or Succeeded true descendant is
// impossible (its inputs could never all have fulfilled). Every node
// canceled here was never submitted — cascade cancellation costs no
// pool slots and no sessions, by construction. Caller holds r.mu.
func (r *run) cascadeLocked(root *Node, cause error) {
	up := &ErrUpstream{Node: root.name, Cause: cause}
	stack := append([]*Node(nil), root.down...)
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.state != NodePending {
			continue
		}
		d.state = NodeCanceled
		d.verdict = serve.VerdictCanceled
		d.err = up
		d.end = time.Time{}
		countNode(NodeCanceled, 0)
		d.future.fail(up)
		stack = append(stack, d.down...)
	}
}
