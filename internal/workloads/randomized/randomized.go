// Package randomized is benchmark 4 of the paper: 5,000 promises
// distributed over 2,535 tasks spawned in a tree with branching factor 3;
// each task awaits a random promise with probability 0.8 before doing some
// work, fulfilling its own promises, and awaiting its children. The
// generator (internal/randprog) chooses awaits that are deadlock-free by
// construction, playing the role of the paper's hand-picked benign seed.
package randomized

import (
	"repro/internal/core"
	"repro/internal/randprog"
)

// Config selects the generated program's shape.
type Config struct {
	Seed      int64
	Tasks     int
	Promises  int
	AwaitProb float64
	Work      int
}

// Small is the test-sized configuration.
func Small() Config { return Config{Seed: 1, Tasks: 200, Promises: 400, AwaitProb: 0.8, Work: 200} }

// Default is the benchmark configuration.
func Default() Config {
	return Config{Seed: 1, Tasks: 2535, Promises: 5000, AwaitProb: 0.8, Work: 2000}
}

// Paper matches the paper's shape exactly (2,535 tasks, 5,000 promises,
// branching factor 3, await probability 0.8) with heavier per-task work.
func Paper() Config {
	return Config{Seed: 1, Tasks: 2535, Promises: 5000, AwaitProb: 0.8, Work: 20000}
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare generates the program, then returns a one-shot body that runs
// it under its task. The checksum is the task count (the program's
// observable effect is pure synchronization).
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	prog := randprog.Generate(randprog.Config{
		Seed:      cfg.Seed,
		Tasks:     cfg.Tasks,
		Branch:    3,
		Promises:  cfg.Promises,
		MaxAwaits: 1,
		AwaitProb: cfg.AwaitProb,
		Work:      cfg.Work,
	})
	main := prog.Main()
	return func(t *core.Task) (uint64, error) {
		if err := main(t); err != nil {
			return 0, err
		}
		return uint64(prog.TaskCount()), nil
	}, nil
}
