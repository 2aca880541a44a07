// Package ppsim is a staged population-protocol simulation in the style
// of the ppsim simulator (arXiv:2105.04702): a population of anonymous
// agents evolves under the 3-state approximate-majority protocol, run as
// a sequence of epochs. Each epoch is one SESSION — inside it the
// population is sharded and simulated by parallel child tasks over
// seeded per-shard RNG streams — and the epochs chain through the graph
// layer: epoch k's census is epoch k+1's input, handed across sessions
// by a cross-session future. The result is the canonical "deep chain
// with intra-node parallelism" graph family, with a bitwise-reproducible
// sequential reference to verify against.
package ppsim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// Agent states of the approximate-majority protocol.
const (
	stA = iota // majority candidate A
	stB        // majority candidate B
	stU        // undecided
	numStates
)

// Pop is a population census: agent counts per state. It is the value
// that travels between epoch sessions through futures — plain data, no
// runtime state.
type Pop [numStates]int64

// Total returns the population size.
func (p Pop) Total() int64 { return p[stA] + p[stB] + p[stU] }

// Config sizes the simulation.
type Config struct {
	// Agents is the population size.
	Agents int64
	// Epochs is the number of chained epoch sessions.
	Epochs int
	// StepsPerShard is the number of pairwise interactions each shard
	// simulates per epoch.
	StepsPerShard int
	// Shards is the intra-epoch parallelism: the population is split
	// into this many subpopulations, simulated by child tasks.
	Shards int
	// Seed fixes every RNG stream.
	Seed int64
}

// Small is the test-sized configuration.
func Small() Config {
	return Config{Agents: 2000, Epochs: 4, StepsPerShard: 500, Shards: 4, Seed: 1}
}

// Default is sized for benchmark runs.
func Default() Config {
	return Config{Agents: 200000, Epochs: 12, StepsPerShard: 40000, Shards: 8, Seed: 1}
}

// Paper approximates the scale ppsim reports for batched simulation:
// millions of agents over long interaction sequences.
func Paper() Config {
	return Config{Agents: 5000000, Epochs: 32, StepsPerShard: 400000, Shards: 16, Seed: 1}
}

// initial seeds the population with a 55/45 split between A and B, so
// approximate majority has a real (but not trivial) gap to amplify.
func initial(cfg Config) Pop {
	a := cfg.Agents * 11 / 20
	return Pop{a, cfg.Agents - a, 0}
}

// shardSeed derives the deterministic RNG seed of one (epoch, shard)
// cell; the sequential reference uses the identical derivation, which is
// what makes the two bitwise comparable.
func shardSeed(cfg Config, epoch, shard int) int64 {
	return cfg.Seed + int64(epoch)*1000003 + int64(shard)*7919
}

// split deals the census into shard subpopulations, per-state
// round-robin remainders, deterministically.
func split(p Pop, shards int) []Pop {
	out := make([]Pop, shards)
	for s := 0; s < numStates; s++ {
		base, rem := p[s]/int64(shards), p[s]%int64(shards)
		for w := range out {
			out[w][s] = base
			if int64(w) < rem {
				out[w][s]++
			}
		}
	}
	return out
}

// stateAt maps an agent index to its state under the counts ordering
// (all A agents first, then B, then U).
func stateAt(p Pop, i int64) int {
	if i < p[stA] {
		return stA
	}
	if i < p[stA]+p[stB] {
		return stB
	}
	return stU
}

// simShard runs steps pairwise interactions over one subpopulation:
// draw an ordered agent pair, apply the approximate-majority rule
// (A+B -> A+U as initiator converts responder; A+U -> A+A; B+U -> B+B),
// update the census. Pure CPU over its own RNG — shards never interact
// within an epoch, which is the batching trick that makes the epoch
// embarrassingly parallel.
func simShard(p Pop, steps int, rng *rand.Rand) Pop {
	m := p.Total()
	if m < 2 {
		return p
	}
	for s := 0; s < steps; s++ {
		i := rng.Int63n(m)
		j := rng.Int63n(m - 1)
		if j >= i {
			j++
		}
		a, b := stateAt(p, i), stateAt(p, j)
		switch {
		case a == stA && b == stB:
			p[stB]--
			p[stU]++
		case a == stB && b == stA:
			p[stA]--
			p[stU]++
		case a == stA && b == stU:
			p[stU]--
			p[stA]++
		case a == stB && b == stU:
			p[stU]--
			p[stB]++
		}
	}
	return p
}

// epoch advances the census by one epoch sequentially — the reference
// the parallel paths must match bitwise (same split, same seeds, same
// merge order).
func epoch(cfg Config, e int, p Pop) Pop {
	var next Pop
	for w, sub := range split(p, cfg.Shards) {
		r := simShard(sub, cfg.StepsPerShard, rand.New(rand.NewSource(shardSeed(cfg, e, w))))
		for s := 0; s < numStates; s++ {
			next[s] += r[s]
		}
	}
	return next
}

// RunSequential computes the reference final census single-threaded.
func RunSequential(cfg Config) Pop {
	p := initial(cfg)
	for e := 0; e < cfg.Epochs; e++ {
		p = epoch(cfg, e, p)
	}
	return p
}

// runEpoch is the parallel epoch body under task t: shard the census,
// simulate every shard in one AsyncBatch, merge in shard order.
func runEpoch(t *core.Task, cfg Config, e int, p Pop) (Pop, error) {
	subs := split(p, cfg.Shards)
	cells := make([]*core.Promise[Pop], cfg.Shards)
	specs := make([]core.SpawnSpec, cfg.Shards)
	for w := 0; w < cfg.Shards; w++ {
		w := w
		cells[w] = core.NewPromiseNamed[Pop](t, fmt.Sprintf("shard-%d-%d", e, w))
		sub := subs[w]
		specs[w] = core.SpawnSpec{
			Name: fmt.Sprintf("sim-%d-%d", e, w),
			Body: func(c *core.Task) error {
				r := simShard(sub, cfg.StepsPerShard, rand.New(rand.NewSource(shardSeed(cfg, e, w))))
				return cells[w].Set(c, r)
			},
			Moved: []core.Movable{cells[w]},
		}
	}
	if _, err := t.AsyncBatch(specs); err != nil {
		return Pop{}, err
	}
	var next Pop
	for _, cell := range cells {
		r, err := cell.Get(t)
		if err != nil {
			return Pop{}, err
		}
		for s := 0; s < numStates; s++ {
			next[s] += r[s]
		}
	}
	return next, nil
}

// BuildGraph assembles the epoch-pipeline graph: epoch-000 ... epoch-N-1
// chained by futures carrying the census, then a census node that
// verifies agent conservation and re-emits the final Pop. The returned
// check validates a finished GraphResult against the sequential
// reference — the cross-session dataflow must be bitwise identical to a
// single-threaded run.
func BuildGraph(cfg Config) (*graph.Graph, func(*graph.GraphResult) error) {
	g := graph.New("ppsim")
	prev := ""
	for e := 0; e < cfg.Epochs; e++ {
		e := e
		name := fmt.Sprintf("epoch-%03d", e)
		var opts []graph.NodeOption
		if prev != "" {
			opts = append(opts, graph.After(prev))
		}
		dep := prev
		g.MustNode(name, func(t *core.Task, in graph.Inputs) (any, error) {
			p := initial(cfg)
			if dep != "" {
				var err error
				if p, err = graph.In[Pop](in, dep); err != nil {
					return nil, err
				}
			}
			return runEpoch(t, cfg, e, p)
		}, opts...)
		prev = name
	}
	last := prev
	g.MustNode("census", func(_ *core.Task, in graph.Inputs) (any, error) {
		p, err := graph.In[Pop](in, last)
		if err != nil {
			return nil, err
		}
		if p.Total() != cfg.Agents {
			return nil, fmt.Errorf("ppsim: %d agents after %d epochs, want %d (conservation broken)",
				p.Total(), cfg.Epochs, cfg.Agents)
		}
		return p, nil
	}, graph.After(last))

	check := func(res *graph.GraphResult) error {
		out, ok := res.Output("census")
		if !ok {
			return fmt.Errorf("ppsim: census did not succeed (graph err: %v)", res.Err)
		}
		got := out.(Pop)
		want := RunSequential(cfg)
		if got != want {
			return fmt.Errorf("ppsim: final census %v, want %v", got, want)
		}
		return nil
	}
	return g, check
}

// Prepare seeds the population, then returns a one-shot body that runs
// the whole simulation inside a single session: the same epochs, shards,
// and seeds as the graph form, without crossing session boundaries. The
// body returns the checksum of the final census.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	p := initial(cfg)
	return func(t *core.Task) (uint64, error) {
		for e := 0; e < cfg.Epochs; e++ {
			var err error
			if p, err = runEpoch(t, cfg, e, p); err != nil {
				return 0, err
			}
		}
		if p.Total() != cfg.Agents {
			return 0, fmt.Errorf("ppsim: conservation broken: %v", p)
		}
		return p.checksum(), nil
	}, nil
}

// checksum folds a census into one number.
func (p Pop) checksum() (acc uint64) {
	for _, n := range p {
		acc = acc*1099511628211 + uint64(n)
	}
	return acc
}
