package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// NodeFunc is a node's body: one session program that receives its
// upstream outputs as resolved Inputs and returns the node's own output.
// The returned value is handed to downstream nodes through the node's
// Future AFTER this session's runtime has fully unwound; it must be
// plain data — carrying a *core.Promise or *core.Task out of the session
// would smuggle one runtime's state into another and is unsupported.
type NodeFunc func(t *core.Task, in Inputs) (any, error)

// Retry is a node's retry policy. MaxAttempts bounds the TOTAL number
// of attempts (sessions) the node may consume; <= 1 means no retries.
// Backoff is the delay before the second attempt, doubling per further
// attempt and capped at 32x; zero retries immediately. Admission
// saturation (serve.ErrPoolSaturated) is retried separately and does
// not consume attempts — the body never ran, so re-submitting cannot
// double any effect, and the node still counts exactly once.
type Retry struct {
	MaxAttempts int
	Backoff     time.Duration
}

func (r Retry) maxAttempts() int {
	if r.MaxAttempts <= 1 {
		return 1
	}
	return r.MaxAttempts
}

// backoffFor returns the delay before attempt+1, exponential in the
// number of failures so far and capped at 32x the base.
func (r Retry) backoffFor(attempt int) time.Duration {
	if r.Backoff <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	return r.Backoff << shift
}

// ErrUpstream is the typed cancellation cascaded to every transitive
// descendant of a terminally failed (or canceled) node. Node names the
// node whose terminal outcome triggered the cascade — the ROOT failure,
// not the immediate parent — and Cause carries its error, so a canceled
// leaf five hops downstream still reports which node doomed it and why.
type ErrUpstream struct {
	Node  string
	Cause error
}

func (e *ErrUpstream) Error() string {
	return fmt.Sprintf("graph: canceled by upstream node %q: %v", e.Node, e.Cause)
}

// Unwrap exposes the root failure to errors.Is/As.
func (e *ErrUpstream) Unwrap() error { return e.Cause }

// ErrNodeTimeout is the cancellation cause installed by a node's
// per-attempt WithTimeout deadline. A timed-out attempt is a FAILED
// attempt (retried while budget remains), distinguished by this
// sentinel from a graph-level cancellation, which is terminal.
var ErrNodeTimeout = errors.New("graph: node attempt timed out")

// errGraphReran rejects a second Run on the same Graph.
var errGraphReran = errors.New("graph: Run already called (graphs are single-shot)")

// Node is one vertex of a Graph: a session body plus the names of the
// upstream nodes whose outputs it consumes, under its own policy.
// Construct with Graph.Node; fields are immutable after that.
type Node struct {
	name    string
	fn      NodeFunc
	deps    []string
	retry   Retry
	timeout time.Duration
	runtime []core.Option  // per-node core options (mode override etc.)
	submit  []serve.Option // per-node submit-scope serve options
	future  *Future

	// run state, owned by the run scheduler (guarded by run.mu).
	state    NodeState
	waiting  int // unfulfilled input count
	attempts int
	verdict  serve.Verdict
	err      error
	out      any
	start    time.Time
	end      time.Time
	bodyRuns atomic.Int64 // body executions; exactly-once harness evidence
	down     []*Node      // consumers (reverse edges), built at Node()
}

// Name returns the node's graph-unique name.
func (n *Node) Name() string { return n.name }

// Deps returns a copy of the node's declared dependency names.
func (n *Node) Deps() []string { return append([]string(nil), n.deps...) }

// Future returns the node's output cell. It resolves when the node
// reaches its terminal state: fulfilled with the body's output on a
// clean verdict, failed with the node's error otherwise. Readable from
// anywhere — including other sessions — without touching this node's
// runtime.
func (n *Node) Future() *Future { return n.future }

// BodyRuns returns how many times the node's body has started
// executing. For a healthy graph this is exactly the attempt count of a
// node that ran and zero for a cascade-canceled node; the loadgen
// harness asserts both (the "no double-run" invariant).
func (n *Node) BodyRuns() int64 { return n.bodyRuns.Load() }

// NodeOption configures one node at declaration.
type NodeOption func(*Node)

// After declares the node's inputs: it consumes the outputs of the
// named nodes and is not submitted until every one has fulfilled.
// Dependencies must already be declared on the graph — declare-before-
// use is what makes every Graph acyclic by construction (an edge can
// only point backwards in declaration order, so no cycle can ever be
// expressed and Run needs no cycle check).
func After(deps ...string) NodeOption {
	return func(n *Node) { n.deps = append(n.deps, deps...) }
}

// WithRetry sets the node's retry policy (default: one attempt).
func WithRetry(r Retry) NodeOption {
	return func(n *Node) { n.retry = r }
}

// WithTimeout bounds each ATTEMPT of the node: the attempt's session
// context carries this deadline (cause ErrNodeTimeout), so an overrun
// cancels the session mid-flight and counts as a failed attempt —
// retried while the node's budget lasts, terminal otherwise.
func WithTimeout(d time.Duration) NodeOption {
	return func(n *Node) { n.timeout = d }
}

// WithRuntime appends core options to the node's session runtimes.
// They are passed at submit scope, so they land after (and override)
// the pool's base runtime options: WithRuntime(core.WithMode(m)) runs a
// trusted bulk stage Unverified while the rest of the graph stays Full.
func WithRuntime(opts ...core.Option) NodeOption {
	return func(n *Node) { n.runtime = append(n.runtime, opts...) }
}

// WithSubmit appends submit-scope serve options (e.g. serve.WithTenant)
// to every attempt's Pool.Submit call — the graph layer adds policy on
// top of the unified serve.Option surface rather than forking it.
func WithSubmit(opts ...serve.Option) NodeOption {
	return func(n *Node) { n.submit = append(n.submit, opts...) }
}

// Graph is a DAG of dependent sessions. Build with New + Node (deps
// declare-before-use keep it acyclic by construction), then execute
// once with Run. A Graph is not safe for concurrent building, and Run
// may be called exactly once.
type Graph struct {
	name  string
	nodes map[string]*Node
	order []*Node // declaration order — a topological order by construction
	ran   atomic.Bool
}

// New creates an empty named graph. The name prefixes the session names
// of every node attempt ("name/node") in pool accounting and traces.
func New(name string) *Graph {
	if name == "" {
		name = "graph"
	}
	return &Graph{name: name, nodes: make(map[string]*Node)}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Len returns the number of declared nodes.
func (g *Graph) Len() int { return len(g.order) }

// Node declares a node. The name must be graph-unique and non-empty, fn
// non-nil, and every dependency named by After must already be declared
// — forward or self references are rejected, which is precisely what
// guarantees the graph stays a DAG with no separate cycle check.
func (g *Graph) Node(name string, fn NodeFunc, opts ...NodeOption) (*Node, error) {
	if name == "" {
		return nil, errors.New("graph: empty node name")
	}
	if fn == nil {
		return nil, fmt.Errorf("graph: node %q has a nil body", name)
	}
	if _, dup := g.nodes[name]; dup {
		return nil, fmt.Errorf("graph: duplicate node %q", name)
	}
	n := &Node{name: name, fn: fn, future: newFuture(name), state: NodePending}
	for _, opt := range opts {
		if opt != nil {
			opt(n)
		}
	}
	seen := make(map[string]bool, len(n.deps))
	for _, dep := range n.deps {
		if dep == name {
			return nil, fmt.Errorf("graph: node %q depends on itself", name)
		}
		if seen[dep] {
			return nil, fmt.Errorf("graph: node %q lists dependency %q twice", name, dep)
		}
		seen[dep] = true
		up, ok := g.nodes[dep]
		if !ok {
			return nil, fmt.Errorf("graph: node %q depends on undeclared node %q (declare dependencies first)", name, dep)
		}
		up.down = append(up.down, n)
	}
	n.waiting = len(n.deps)
	g.nodes[name] = n
	g.order = append(g.order, n)
	return n, nil
}

// MustNode is Node, panicking on a declaration error — for statically
// shaped graphs (workload builders, tests) where an error is a bug.
func (g *Graph) MustNode(name string, fn NodeFunc, opts ...NodeOption) *Node {
	n, err := g.Node(name, fn, opts...)
	if err != nil {
		panic(err)
	}
	return n
}

// Nodes returns the declared nodes in declaration (topological) order.
func (g *Graph) Nodes() []*Node { return append([]*Node(nil), g.order...) }
