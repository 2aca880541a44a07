// Package ppg is an iteration-graph workload shaped like the
// proximal-proximal-gradient method (arXiv:1708.06908): a ridge
// least-squares objective split into row blocks, iterated as rounds of
// per-block gradient MAP nodes feeding a barrier REDUCE node that takes
// the descent step and hands the new iterate to the next round. Each
// map and each reduce is its own session; the iterate and the block
// gradients travel between them through cross-session futures, while
// each block's rows stay resident: they are generated once per graph,
// session or reference and only read after that. That makes it the
// canonical "wide fan, hard barrier, repeat" graph family, complementing
// ppsim's deep chain — and like every workload here it carries a
// bitwise-identical sequential reference to verify against.
package ppg

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// Config sizes the optimization.
type Config struct {
	// Dim is the iterate length n.
	Dim int
	// Blocks is the number of row blocks — the map-node fan per round.
	Blocks int
	// RowsPerBlock is each block's row count.
	RowsPerBlock int
	// Iters is the number of map/reduce rounds.
	Iters int
	// Chunks is the intra-map parallelism: each gradient node splits its
	// rows into this many child tasks and merges their partials in order.
	Chunks int
	// Step is the gradient step size, Lambda the ridge weight.
	Step, Lambda float64
	// Seed fixes the generated problem data.
	Seed int64
}

// Small is the test-sized configuration.
func Small() Config {
	return Config{Dim: 16, Blocks: 4, RowsPerBlock: 32, Iters: 4, Chunks: 2, Step: 1e-4, Lambda: 0.1, Seed: 3}
}

// Default is sized for benchmark runs.
func Default() Config {
	return Config{Dim: 64, Blocks: 8, RowsPerBlock: 128, Iters: 10, Chunks: 2, Step: 1e-4, Lambda: 0.1, Seed: 3}
}

// Paper scales the fan and problem size toward the paper's distributed
// experiments.
func Paper() Config {
	return Config{Dim: 256, Blocks: 16, RowsPerBlock: 512, Iters: 20, Chunks: 4, Step: 1e-4, Lambda: 0.1, Seed: 3}
}

// block is one row block of the problem with the names its gradient
// body gives each chunk's promise and task, and the name the
// single-session form gives the block's promise and task in each round.
// It is built once and shared by every round, node and task that reads
// it; nothing writes it after buildBlocks returns.
type block struct {
	rows       [][]float64
	y          []float64
	cellNames  []string // per chunk: "partial-<b>-<c>"
	taskNames  []string // per chunk: "grad-<b>-<c>"
	roundNames []string // per round k: "block-<k>-<b>"
}

// newBlocks is the one block builder every form of the problem calls; a
// package test wraps it to count the calls.
var newBlocks = buildBlocks

// buildBlocks generates every block's rows and targets from the seed,
// one math/rand source per block, drawing each row and then its target.
// Futures carry iterates and gradients only; the blocks never travel.
func buildBlocks(cfg Config) []block {
	blocks := make([]block, cfg.Blocks)
	for b := range blocks {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(b)*104729))
		blk := &blocks[b]
		blk.rows = make([][]float64, cfg.RowsPerBlock)
		blk.y = make([]float64, cfg.RowsPerBlock)
		for i := range blk.rows {
			row := make([]float64, cfg.Dim)
			for j := range row {
				row[j] = rng.Float64()*2 - 1
			}
			blk.rows[i] = row
			blk.y[i] = rng.Float64()*2 - 1
		}
		blk.cellNames = make([]string, cfg.Chunks)
		blk.taskNames = make([]string, cfg.Chunks)
		for c := range blk.cellNames {
			blk.cellNames[c] = fmt.Sprintf("partial-%d-%d", b, c)
			blk.taskNames[c] = fmt.Sprintf("grad-%d-%d", b, c)
		}
		blk.roundNames = make([]string, cfg.Iters)
		for k := range blk.roundNames {
			blk.roundNames[k] = fmt.Sprintf("block-%d-%d", k, b)
		}
	}
	return blocks
}

// chunkGrad computes the partial gradient A_c^T (A_c z - y_c) over one
// contiguous row chunk.
func chunkGrad(rows [][]float64, y, z []float64, lo, hi int) []float64 {
	g := make([]float64, len(z))
	for i := lo; i < hi; i++ {
		var r float64
		for j, a := range rows[i] {
			r += a * z[j]
		}
		r -= y[i]
		for j, a := range rows[i] {
			g[j] += a * r
		}
	}
	return g
}

// chunkBounds splits rows into cfg.Chunks contiguous spans.
func chunkBounds(cfg Config, c int) (lo, hi int) {
	per := (cfg.RowsPerBlock + cfg.Chunks - 1) / cfg.Chunks
	lo = c * per
	hi = lo + per
	if hi > cfg.RowsPerBlock {
		hi = cfg.RowsPerBlock
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// blockGradSeq is the sequential per-block gradient: the same chunk
// split and merge order as the parallel body, so results are bitwise
// identical.
func blockGradSeq(cfg Config, blk *block, z []float64) []float64 {
	g := make([]float64, cfg.Dim)
	for c := 0; c < cfg.Chunks; c++ {
		lo, hi := chunkBounds(cfg, c)
		for j, v := range chunkGrad(blk.rows, blk.y, z, lo, hi) {
			g[j] += v
		}
	}
	return g
}

// descend applies one reduce step: z' = z - Step*(sum_b grad_b + Lambda*z),
// summing blocks in index order.
func descend(cfg Config, z []float64, grads [][]float64) []float64 {
	next := make([]float64, len(z))
	for j := range next {
		var s float64
		for _, g := range grads {
			s += g[j]
		}
		next[j] = z[j] - cfg.Step*(s+cfg.Lambda*z[j])
	}
	return next
}

// RunSequential computes the reference iterate single-threaded.
func RunSequential(cfg Config) []float64 {
	return runSequential(cfg, newBlocks(cfg))
}

func runSequential(cfg Config, blocks []block) []float64 {
	z := make([]float64, cfg.Dim)
	for k := 0; k < cfg.Iters; k++ {
		grads := make([][]float64, cfg.Blocks)
		for b := range grads {
			grads[b] = blockGradSeq(cfg, &blocks[b], z)
		}
		z = descend(cfg, z, grads)
	}
	return z
}

// runBlockGrad is the parallel gradient body under task t: fan the
// block's row chunks across child tasks, merge partials in chunk order.
func runBlockGrad(t *core.Task, cfg Config, blk *block, z []float64) ([]float64, error) {
	cells := make([]*core.Promise[[]float64], cfg.Chunks)
	specs := make([]core.SpawnSpec, cfg.Chunks)
	for c := 0; c < cfg.Chunks; c++ {
		c := c
		cells[c] = core.NewPromiseNamed[[]float64](t, blk.cellNames[c])
		specs[c] = core.SpawnSpec{
			Name: blk.taskNames[c],
			Body: func(ct *core.Task) error {
				lo, hi := chunkBounds(cfg, c)
				return cells[c].Set(ct, chunkGrad(blk.rows, blk.y, z, lo, hi))
			},
			Moved: []core.Movable{cells[c]},
		}
	}
	if _, err := t.AsyncBatch(specs); err != nil {
		return nil, err
	}
	g := make([]float64, cfg.Dim)
	for _, cell := range cells {
		part, err := cell.Get(t)
		if err != nil {
			return nil, err
		}
		for j, v := range part {
			g[j] += v
		}
	}
	return g, nil
}

func gradName(k, b int) string { return fmt.Sprintf("it%02d-grad%02d", k, b) }
func redName(k int) string     { return fmt.Sprintf("it%02d-reduce", k) }

// BuildGraph assembles the iteration graph: per round k, Blocks gradient
// map nodes (each consuming the previous round's iterate) and one
// barrier reduce node consuming all of them plus the iterate, emitting
// the next iterate. The blocks are built here, once per graph, and the
// map nodes only read them. The returned check compares the final reduce
// output against the sequential reference over the same blocks bitwise.
func BuildGraph(cfg Config) (*graph.Graph, func(*graph.GraphResult) error) {
	return buildGraph(cfg, newBlocks(cfg))
}

func buildGraph(cfg Config, blocks []block) (*graph.Graph, func(*graph.GraphResult) error) {
	g := graph.New("ppg")
	prev := "" // previous round's reduce node, "" for round 0
	for k := 0; k < cfg.Iters; k++ {
		dep := prev
		iterate := func(in graph.Inputs) ([]float64, error) {
			if dep == "" {
				return make([]float64, cfg.Dim), nil
			}
			return graph.In[[]float64](in, dep)
		}
		gradNames := make([]string, cfg.Blocks)
		for b := 0; b < cfg.Blocks; b++ {
			blk := &blocks[b]
			gradNames[b] = gradName(k, b)
			var opts []graph.NodeOption
			if dep != "" {
				opts = append(opts, graph.After(dep))
			}
			g.MustNode(gradNames[b], func(t *core.Task, in graph.Inputs) (any, error) {
				z, err := iterate(in)
				if err != nil {
					return nil, err
				}
				return runBlockGrad(t, cfg, blk, z)
			}, opts...)
		}
		deps := gradNames
		if dep != "" {
			deps = append(deps, dep)
		}
		g.MustNode(redName(k), func(_ *core.Task, in graph.Inputs) (any, error) {
			z, err := iterate(in)
			if err != nil {
				return nil, err
			}
			grads := make([][]float64, cfg.Blocks)
			for b := range grads {
				if grads[b], err = graph.In[[]float64](in, gradNames[b]); err != nil {
					return nil, err
				}
			}
			return descend(cfg, z, grads), nil
		}, graph.After(deps...))
		prev = redName(k)
	}

	last := prev
	check := func(res *graph.GraphResult) error {
		out, ok := res.Output(last)
		if !ok {
			return fmt.Errorf("ppg: final reduce did not succeed (graph err: %v)", res.Err)
		}
		got := out.([]float64)
		want := runSequential(cfg, blocks)
		if len(got) != len(want) {
			return fmt.Errorf("ppg: iterate length %d, want %d", len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("ppg: iterate[%d] = %v, want %v (not bitwise identical)", j, got[j], want[j])
			}
		}
		return nil
	}
	return g, check
}

// Run executes all rounds inside a single session: per round, one child
// task per block gradient (each fanning its chunks), merged in block
// order — the same arithmetic order as the graph form. The blocks are
// built once per call.
func Run(t *core.Task, cfg Config) ([]float64, error) {
	return run(t, cfg, newBlocks(cfg))
}

func run(t *core.Task, cfg Config, blocks []block) ([]float64, error) {
	z := make([]float64, cfg.Dim)
	for k := 0; k < cfg.Iters; k++ {
		cells := make([]*core.Promise[[]float64], cfg.Blocks)
		specs := make([]core.SpawnSpec, cfg.Blocks)
		for b := 0; b < cfg.Blocks; b++ {
			blk := &blocks[b]
			cells[b] = core.NewPromiseNamed[[]float64](t, blk.roundNames[k])
			zk := z
			specs[b] = core.SpawnSpec{
				Name: blk.roundNames[k],
				Body: func(ct *core.Task) error {
					g, err := runBlockGrad(ct, cfg, blk, zk)
					if err != nil {
						return err
					}
					return cells[b].Set(ct, g)
				},
				Moved: []core.Movable{cells[b]},
			}
		}
		if _, err := t.AsyncBatch(specs); err != nil {
			return nil, err
		}
		grads := make([][]float64, cfg.Blocks)
		for b, cell := range cells {
			g, err := cell.Get(t)
			if err != nil {
				return nil, err
			}
			grads[b] = g
		}
		z = descend(cfg, z, grads)
	}
	return z, nil
}

// Main returns a root TaskFunc for the harness. The blocks are built
// here, before the TaskFunc exists, and every run of it reads them.
func Main(cfg Config) core.TaskFunc {
	blocks := newBlocks(cfg)
	return func(t *core.Task) error {
		_, err := run(t, cfg, blocks)
		return err
	}
}
