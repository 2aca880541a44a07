package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Micro is one fast-path microbenchmark measurement: promise and spawn
// latencies in the style of the BenchmarkMicro_* suite, but measured by
// cmd/benchtable so they land in BENCH_table1.json next to the Table-1
// rows and successive PRs can track the fast-path trajectory.
type Micro struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// microIters is sized so each measurement takes a few milliseconds: long
// enough to amortize timer resolution, short enough that the whole micro
// suite adds nothing noticeable to a benchtable run.
const microIters = 200_000

// measureMicro times iters runs of the step produced by setup inside a
// fresh runtime and returns ns/op, B/op and allocs/op (allocation figures
// from the per-process MemStats deltas, so run them single-threaded).
// setup runs once, before the warm-up, for fixtures that must outlive the
// loop (e.g. a pre-fulfilled promise).
func measureMicro(name string, mode core.Mode, iters int, opts []core.Option, setup func(t *core.Task) (func(i int) error, error)) (Micro, error) {
	m := Micro{Name: name, Mode: mode.String()}
	rt := core.NewRuntime(append([]core.Option{core.WithMode(mode)}, opts...)...)
	err := rt.Run(func(t *core.Task) error {
		step, err := setup(t)
		if err != nil {
			return err
		}
		// Warm-up: let pools and owned lists reach steady state.
		for i := 0; i < 1000; i++ {
			if err := step(i); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := step(i); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		m.NsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
		m.BPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
		m.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
		return nil
	})
	if err != nil {
		return m, fmt.Errorf("harness: micro %s/%s: %w", name, m.Mode, err)
	}
	return m, nil
}

// The micro fixtures are exported so the root BenchmarkMicro_* functions
// and MeasureMicros time the SAME operation: a drift between what go test
// reports and what BENCH_table1.json tracks would silently corrupt the
// cross-PR trajectory. Each fixture runs once per measurement and returns
// the per-iteration step.

// FulfilledGetFixture pre-fulfils one promise; the step is a Get on it —
// the pure fast-path read (one atomic load, 0 allocs).
func FulfilledGetFixture(t *core.Task) (func(int) error, error) {
	p := core.NewPromise[int](t)
	if err := p.Set(t, 42); err != nil {
		return nil, err
	}
	return func(int) error {
		_, err := p.Get(t)
		return err
	}, nil
}

// SetGetFixture's step is a full NewPromise/Set/Get round-trip.
func SetGetFixture(t *core.Task) (func(int) error, error) {
	return func(i int) error {
		p := core.NewPromise[int](t)
		if err := p.Set(t, i); err != nil {
			return err
		}
		_, err := p.Get(t)
		return err
	}, nil
}

// SpawnFixture's step spawns a child with one moved promise and joins
// through it.
func SpawnFixture(t *core.Task) (func(int) error, error) {
	return func(int) error {
		p := core.NewPromise[struct{}](t)
		if _, err := t.Async(func(c *core.Task) error {
			return p.Set(c, struct{}{})
		}, p); err != nil {
			return err
		}
		_, err := p.Get(t)
		return err
	}, nil
}

// BatchWidth is the fan-out of the spawn-batch micro. 64 is large enough
// that per-batch costs are visibly amortized and small enough to be a
// realistic fan-out unit.
const BatchWidth = 64

// SpawnBatchFixture's step spawns BatchWidth children in ONE AsyncBatch
// call — each setting its own moved promise — then joins through the
// promises. Specs, bodies, and moved sets are hoisted and reused across
// iterations (each body captures its slot index into the promise array),
// so the iteration's allocations are the promises, the child tasks and
// their owned-list seeds, plus AsyncBatch's own children slice.
// MeasureMicros divides this row by BatchWidth: it reads as amortized
// cost per spawn, directly comparable to the spawn row.
func SpawnBatchFixture(t *core.Task) (func(int) error, error) {
	var (
		proms [BatchWidth]*core.Promise[struct{}]
		specs [BatchWidth]core.SpawnSpec
		moved [BatchWidth][1]core.Movable
	)
	for k := range specs {
		k := k
		specs[k].Body = func(c *core.Task) error { return proms[k].Set(c, struct{}{}) }
		specs[k].Moved = moved[k][:]
	}
	return func(int) error {
		for k := range proms {
			p := core.NewPromise[struct{}](t)
			proms[k] = p
			moved[k][0] = p
		}
		if _, err := t.AsyncBatch(specs[:]); err != nil {
			return err
		}
		for k := range proms {
			if _, err := proms[k].Get(t); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// MeasureMicros runs the fast-path microbenchmarks — fulfilled-promise
// Get, Set/Get round-trip, spawn+join with one moved promise, the
// batched spawn variant, and the Set/Get round-trip with binary tracing active — across the requested
// modes. Options are built per
// measurement so stateful fixtures (the trace sink) are never shared
// between runtimes. Rows with div > 1 perform div logical operations
// per step and are reported amortized (figures divided by div).
func MeasureMicros(modes []core.Mode) ([]Micro, error) {
	var out []Micro
	var cleanups []func()
	defer func() {
		for _, c := range cleanups {
			c()
		}
	}()
	for _, mode := range modes {
		for _, bench := range []struct {
			name  string
			iters int
			div   int
			opts  func() []core.Option
			after func() // runs right after the measurement, even on error
			setup func(t *core.Task) (func(int) error, error)
		}{
			{"fulfilled-get", microIters, 0, nil, nil, FulfilledGetFixture},
			{"setget", microIters, 0, nil, nil, SetGetFixture},
			{"spawn", microIters / 4, 0, nil, nil, SpawnFixture},
			// The floor-breaking row: the amortized per-spawn cost of a
			// 64-wide AsyncBatch. spawn-batch runs on the elastic scheduler with the vectorized
			// submit — the serving configuration, and the place batching
			// structurally wins: a worker drains the queue back-to-back, so
			// consecutive batch children run WITHOUT a park/wake context
			// switch between them, which a goroutine per child cannot
			// avoid. The pool is torn down after the measurement.
			{"spawn-batch", microIters / (4 * BatchWidth), BatchWidth, func() []core.Option {
				pool := sched.NewElastic(100 * time.Millisecond)
				cleanups = append(cleanups, pool.Close)
				return []core.Option{core.WithExecutor(pool)}
			}, nil, SpawnBatchFixture},
			// The trace-overhead row: the same Set/Get round-trip with every
			// event staged per task and delivered through the collector to
			// the binary encoder. Delivery and encoding run on the emitting
			// task's goroutine, so the figure includes their allocations —
			// the whole-subsystem cost per operation.
			{"setget-traced", microIters, 0, func() []core.Option {
				return []core.Option{core.TraceTo(trace.NewWriterSink(io.Discard))}
			}, nil, SetGetFixture},
			// The instrumentation-overhead row: the same spawn+join as the
			// spawn row, but with a metrics registry installed process-wide,
			// so every spawn pays the real counter increments (one padded
			// atomic per site). The gate holds this within 1 alloc and 10%
			// ns of the bare spawn row; the registry is uninstalled right
			// after the measurement so later rows run unobserved.
			{"spawn-instrumented", microIters / 4, 0, func() []core.Option {
				obs.Install(obs.NewRegistry())
				return nil
			}, func() { obs.Install(nil) }, SpawnFixture},
		} {
			m, err := func() (Micro, error) {
				var opts []core.Option
				if bench.opts != nil {
					opts = bench.opts()
				}
				if bench.after != nil {
					defer bench.after()
				}
				return measureMicro(bench.name, mode, bench.iters, opts, bench.setup)
			}()
			if err != nil {
				return nil, err
			}
			if bench.div > 1 {
				d := float64(bench.div)
				m.NsPerOp /= d
				m.BPerOp /= d
				m.AllocsPerOp /= d
			}
			out = append(out, m)
		}
	}
	return out, nil
}
