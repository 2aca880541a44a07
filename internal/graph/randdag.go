package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/randprog"
)

// ErrDoomed is the injected failure a doomed random-DAG node returns
// from every attempt; harnesses match it to tell injected failures from
// organic ones.
var ErrDoomed = errors.New("graph: injected node failure")

// RandConfig sizes a random DAG (Random). The topology is drawn node by
// node in declaration order — each node depends on a few earlier nodes
// or starts a fresh root — so the result is a DAG by construction, with
// the same declare-before-use shape hand-built graphs have.
type RandConfig struct {
	// Nodes is the DAG size (>= 1).
	Nodes int
	// MaxDeps bounds each node's input count (default 3).
	MaxDeps int
	// RootProb is the chance a node starts a new independent root
	// instead of consuming upstream outputs (default 0.1); the first
	// node is always a root.
	RootProb float64
	// DoomProb dooms a node: every attempt fails, exhausting its retry
	// budget and cascading cancellation into its descendants.
	DoomProb float64
	// FlakyProb makes a node flaky: it fails its first MaxAttempts-1
	// attempts and succeeds on the last, exercising the retry path with
	// a terminal success. Ignored when Retry.MaxAttempts <= 1.
	FlakyProb float64
	// Retry is every node's retry policy (default 3 attempts, 1 ms
	// backoff).
	Retry Retry
	// Timeout is every node's per-attempt timeout (0 = none).
	Timeout time.Duration
	// FanWidth is the intra-node fan-out: each body spawns this many
	// children in one AsyncBatch and reduces their outputs, so every
	// node is a real promise program, not a stub (default 8).
	FanWidth int
	// DeadlockDoom makes roughly half the doomed nodes fail by genuine
	// deadlock (the paper's Listing 1 cycle) instead of a returned
	// error, so cascades are driven by detector verdicts too. Requires
	// the pool to run nodes in Full mode.
	DeadlockDoom bool
	// Seed fixes the topology and the doom/flaky draws.
	Seed int64
}

func (c RandConfig) withDefaults() RandConfig {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.MaxDeps <= 0 {
		c.MaxDeps = 3
	}
	if c.RootProb <= 0 {
		c.RootProb = 0.1
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = Retry{MaxAttempts: 3, Backoff: time.Millisecond}
	}
	if c.FanWidth <= 0 {
		c.FanWidth = 8
	}
	return c
}

// RandDAG is a generated graph plus the ground truth a harness needs to
// verify the orchestrator against it: the adjacency, which nodes were
// doomed or flaky, and the deterministic expected terminal state of
// every node.
type RandDAG struct {
	Graph *Graph
	Cfg   RandConfig
	// Deps maps each node to its declared dependencies.
	Deps map[string][]string
	// Doomed nodes fail every attempt (error or injected deadlock).
	Doomed map[string]bool
	// Flaky nodes fail all but their last permitted attempt.
	Flaky map[string]bool
}

// nodeName gives the stable per-index node name ("n000"...).
func nodeName(i int) string { return fmt.Sprintf("n%03d", i) }

// fanBody is the healthy per-node program: sum the node's inputs, fan
// out width children in one AsyncBatch each fulfilling a promise with a
// seeded xorshift value, reduce, and return inputSum+fanSum as the
// node's output.
func fanBody(t *core.Task, in Inputs, deps []string, seed uint64, width int) (any, error) {
	var acc uint64
	for _, dep := range deps {
		v, err := In[uint64](in, dep)
		if err != nil {
			return nil, err
		}
		acc += v
	}
	cells := make([]*core.Promise[uint64], width)
	specs := make([]core.SpawnSpec, width)
	for k := 0; k < width; k++ {
		cells[k] = core.NewPromise[uint64](t)
		x := seed + uint64(k)*2654435761 + 1
		p := cells[k]
		specs[k] = core.SpawnSpec{
			Body: func(c *core.Task) error {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return p.Set(c, x)
			},
			Moved: []core.Movable{p},
		}
	}
	if _, err := t.AsyncBatch(specs); err != nil {
		return nil, err
	}
	for _, p := range cells {
		v, err := p.Get(t)
		if err != nil {
			return nil, err
		}
		acc += v
	}
	return acc, nil
}

// Random generates a seeded random DAG under cfg. The same seed always
// yields the same topology, the same dooms, and therefore the same
// expected terminal state for every node (ExpectedStates) — randomness
// in scheduling cannot change outcomes, only interleavings, which is
// exactly the property the -graph harness leans on.
func Random(cfg RandConfig) *RandDAG {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := New(fmt.Sprintf("rand-%d", cfg.Seed))
	d := &RandDAG{
		Graph:  g,
		Cfg:    cfg,
		Deps:   make(map[string][]string, cfg.Nodes),
		Doomed: make(map[string]bool),
		Flaky:  make(map[string]bool),
	}
	nodeOpts := []NodeOption{WithRetry(cfg.Retry)}
	if cfg.Timeout > 0 {
		nodeOpts = append(nodeOpts, WithTimeout(cfg.Timeout))
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := nodeName(i)
		var deps []string
		if i > 0 && rng.Float64() >= cfg.RootProb {
			k := 1 + rng.Intn(cfg.MaxDeps)
			seen := make(map[int]bool, k)
			for j := 0; j < k; j++ {
				up := rng.Intn(i)
				if !seen[up] {
					seen[up] = true
					deps = append(deps, nodeName(up))
				}
			}
		}
		d.Deps[name] = deps

		doomed := rng.Float64() < cfg.DoomProb
		doomDeadlock := doomed && cfg.DeadlockDoom && rng.Float64() < 0.5
		flaky := !doomed && cfg.Retry.maxAttempts() > 1 && rng.Float64() < cfg.FlakyProb
		if doomed {
			d.Doomed[name] = true
		}
		if flaky {
			d.Flaky[name] = true
		}

		seed := uint64(cfg.Seed)*1e9 + uint64(i)
		failsLeft := int64(cfg.Retry.maxAttempts() - 1)
		var ran atomic.Int64
		depsCopy := deps
		fn := func(t *core.Task, in Inputs) (any, error) {
			switch {
			case doomDeadlock:
				return nil, randprog.Listing1(t)
			case doomed:
				return nil, fmt.Errorf("%w: node %s", ErrDoomed, t.Name())
			case flaky && ran.Add(1) <= failsLeft:
				return nil, fmt.Errorf("graph: flaky attempt %d of node %s", ran.Load(), t.Name())
			}
			return fanBody(t, in, depsCopy, seed, cfg.FanWidth)
		}
		opts := append(append([]NodeOption(nil), nodeOpts...), After(deps...))
		g.MustNode(name, fn, opts...)
	}
	return d
}

// ExpectedStates derives, purely from the topology and the doom set,
// the terminal state every node MUST reach: doomed nodes fail, any node
// with a failed-or-canceled ancestor is canceled, everything else
// (flaky included) succeeds. Scheduling order cannot change this — that
// determinism is the harness's ground truth.
func (d *RandDAG) ExpectedStates() map[string]NodeState {
	out := make(map[string]NodeState, len(d.Deps))
	for _, n := range d.Graph.Nodes() {
		name := n.Name()
		st := NodeSucceeded
		for _, dep := range d.Deps[name] {
			if out[dep] != NodeSucceeded {
				st = NodeCanceled
				break
			}
		}
		if st == NodeSucceeded && d.Doomed[name] {
			st = NodeFailed
		}
		out[name] = st
	}
	return out
}

// Descendants returns every transitive descendant of the named node —
// the exact set a cascade from it must reach.
func (d *RandDAG) Descendants(root string) []string {
	down := make(map[string][]string)
	for name, deps := range d.Deps {
		for _, dep := range deps {
			down[dep] = append(down[dep], name)
		}
	}
	seen := map[string]bool{}
	var out []string
	stack := append([]string(nil), down[root]...)
	for len(stack) > 0 {
		at := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[at] {
			continue
		}
		seen[at] = true
		out = append(out, at)
		stack = append(stack, down[at]...)
	}
	return out
}
