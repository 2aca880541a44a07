// Package sieve counts primes below N with a pipeline of filter tasks
// (benchmark 5 of the paper): each task holds one prime and forwards
// non-multiples to the next stage, so almost every live task is blocked on
// a channel receive at any moment. The resulting dependence chains are the
// longest in the suite — the paper measures over 37,000 gets/ms and a 2.07x
// verification overhead here, the worst case for Algorithm 2's traversal.
package sieve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config sizes the sieve.
type Config struct {
	N int // count primes strictly below N
}

// Small is the test-sized configuration.
func Small() Config { return Config{N: 2_000} }

// Default is the benchmark configuration. Note: on few-core machines the
// verified overhead of Sieve grows well beyond the paper's 2.07x, because
// with fewer running tasks the blocked dependence chains Algorithm 2
// traverses are longer (the paper's own explanation of the Sieve outlier,
// amplified); the default size keeps that effect affordable.
func Default() Config { return Config{N: 10_000} }

// Paper is the paper's configuration: primes below 100,000 (9,592 primes,
// so roughly 9,594 simultaneously live tasks).
func Paper() Config { return Config{N: 100_000} }

// RunSequential counts primes below n with a classical sieve.
func RunSequential(cfg Config) uint64 {
	n := cfg.N
	if n < 2 {
		return 0
	}
	composite := make([]bool, n)
	count := uint64(0)
	for i := 2; i < n; i++ {
		if composite[i] {
			continue
		}
		count++
		for j := i * i; j < n; j += i {
			composite[j] = true
		}
	}
	return count
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare returns a one-shot body that counts primes below cfg.N with
// the task pipeline and returns the count; the sieve has no input to
// build. Every filter task is spawned through a finish scope so the root
// joins the entire pipeline; each stage owns the sending end of its
// outgoing channel and must Close it before terminating, or the ownership
// policy reports it.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	return func(t *core.Task) (uint64, error) {
		if cfg.N < 2 {
			return 0, nil
		}
		var count atomic.Int64
		err := collections.RunFinish(t, func(fs *collections.Finish) error {
			// filter consumes in; its first value is a new prime.
			var filter func(c *core.Task, in *collections.Channel[int]) error
			filter = func(c *core.Task, in *collections.Channel[int]) error {
				prime, ok, err := in.Recv(c)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				count.Add(1)
				var out *collections.Channel[int]
				for {
					v, ok, err := in.Recv(c)
					if err != nil {
						return err
					}
					if !ok {
						if out != nil {
							return out.Close(c)
						}
						return nil
					}
					if v%prime == 0 {
						continue
					}
					if out == nil {
						out = collections.NewChannelNamed[int](c, fmt.Sprintf("sieve-%d", prime))
						next := out
						if _, err := fs.Async(c, func(cc *core.Task) error {
							return filter(cc, next)
						}); err != nil {
							return err
						}
					}
					if err := out.Send(c, v); err != nil {
						return err
					}
				}
			}

			first := collections.NewChannelNamed[int](t, "sieve-gen")
			if _, err := fs.Async(t, func(c *core.Task) error {
				return filter(c, first)
			}); err != nil {
				return err
			}
			for v := 2; v < cfg.N; v++ {
				if err := first.Send(t, v); err != nil {
					return err
				}
			}
			return first.Close(t)
		})
		if err != nil {
			return 0, err
		}
		return uint64(count.Load()), nil
	}, nil
}
