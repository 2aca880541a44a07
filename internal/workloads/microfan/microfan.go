// Package microfan is a fan-out-heavy microbenchmark workload: repeated
// waves of wide, short-lived children whose useful work is a few hundred
// nanoseconds each, so nearly the entire runtime cost is the spawn/join
// machinery itself. It is the workload shape the spawn fast paths exist
// for: each wave is submitted as ONE AsyncBatch (vectorized spawn).
//
// Unlike the paper's nine benchmarks this workload is not from §6.3 — it
// is the repository's own probe for the spawn floor, kept in the registry
// so benchtable, the serving loadgen, and the testing.B benches all see a
// scenario dominated by task creation rather than by waiting or compute.
package microfan

import (
	"fmt"

	"repro/internal/core"
)

// Config sizes the fan-out.
type Config struct {
	Rounds int // number of sequential waves
	Width  int // children per wave (one AsyncBatch)
	Work   int // leaf work per child, in xorshift iterations
}

// Small is the test-sized configuration.
func Small() Config { return Config{Rounds: 8, Width: 16, Work: 64} }

// Default is the benchmark configuration: ~12,800 spawns of ~256-step
// leaves, small enough to stay responsive in a serving mix.
func Default() Config { return Config{Rounds: 200, Width: 64, Work: 256} }

// Paper-scale: there is no published counterpart (the workload is not
// from the paper); this is simply a heavier instance for standalone runs.
func Paper() Config { return Config{Rounds: 1000, Width: 128, Work: 256} }

// leaf is the deterministic per-child computation: a short xorshift walk
// seeded by the child's global index, cheap enough that spawn overhead
// dominates but opaque enough that nothing folds away at compile time.
func leaf(idx, work int) uint64 {
	acc := uint64(idx)*2654435761 + 1
	for i := 0; i < work; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	return acc
}

// RunSequential computes the reduction without tasks, for verification.
func RunSequential(cfg Config) uint64 {
	var sum uint64
	for r := 0; r < cfg.Rounds; r++ {
		for k := 0; k < cfg.Width; k++ {
			sum += leaf(r*cfg.Width+k, cfg.Work)
		}
	}
	return sum
}

// Prepare returns a one-shot body that executes the fan-out waves under
// its task and returns the reduced sum; the waves have no input to build.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	return func(t *core.Task) (uint64, error) {
		if cfg.Width <= 0 || cfg.Rounds <= 0 {
			return 0, nil
		}
		proms := make([]*core.Promise[uint64], cfg.Width)
		specs := make([]core.SpawnSpec, cfg.Width)
		moved := make([][1]core.Movable, cfg.Width)
		var sum uint64
		for r := 0; r < cfg.Rounds; r++ {
			for k := 0; k < cfg.Width; k++ {
				idx := r*cfg.Width + k
				p := core.NewPromise[uint64](t)
				proms[k], moved[k][0] = p, p
				specs[k] = core.SpawnSpec{
					Name:  fmt.Sprintf("mf-%d-%d", r, k),
					Body:  func(c *core.Task) error { return p.Set(c, leaf(idx, cfg.Work)) },
					Moved: moved[k][:],
				}
			}
			if _, err := t.AsyncBatch(specs); err != nil {
				return 0, err
			}
			for k := 0; k < cfg.Width; k++ {
				v, err := proms[k].Get(t)
				if err != nil {
					return 0, err
				}
				sum += v
			}
		}
		return sum, nil
	}, nil
}
