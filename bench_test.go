// Benchmarks regenerating the paper's evaluation with testing.B:
//
//   - BenchmarkTable1_* — one benchmark per Table-1 row, with a
//     baseline (unverified) and verified (Full) sub-benchmark each; the
//     ratio of the two ns/op values is the paper's time-overhead column,
//     and -benchmem's B/op ratio tracks the memory column.
//   - BenchmarkFigure1 — the execution-time series behind Figure 1.
//   - BenchmarkMicro_* — get/set/spawn latencies and the detector's
//     chain-length sensitivity (the mechanism behind Sieve's outlier).
//   - BenchmarkAblation_* — the design-choice ablations DESIGN.md calls
//     out: lock-free vs global-lock detector, owned list vs counter,
//     goroutine-per-task vs elastic pool.
//
// The full Table 1 with confidence intervals and geomeans is produced by
// cmd/benchtable; these benches are the testing.B view of the same
// programs at test-friendly scale.
package repro

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchProgram runs one registered workload under the given runtime
// configuration for b.N iterations.
func benchProgram(b *testing.B, name string, scale workloads.Scale, opts ...core.Option) {
	b.Helper()
	entry, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	prog := entry.Prog(scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.NewRuntime(opts...)
		if err := rt.Run(prog()); err != nil {
			b.Fatal(err)
		}
	}
}

// table1 runs the baseline/verified pair for one Table-1 row.
func table1(b *testing.B, name string) {
	b.Run("baseline", func(b *testing.B) {
		benchProgram(b, name, workloads.ScaleSmall, core.WithMode(core.Unverified))
	})
	b.Run("verified", func(b *testing.B) {
		benchProgram(b, name, workloads.ScaleSmall, core.WithMode(core.Full))
	})
}

func BenchmarkTable1_Conway(b *testing.B)         { table1(b, "Conway") }
func BenchmarkTable1_Heat(b *testing.B)           { table1(b, "Heat") }
func BenchmarkTable1_QSort(b *testing.B)          { table1(b, "QSort") }
func BenchmarkTable1_Randomized(b *testing.B)     { table1(b, "Randomized") }
func BenchmarkTable1_Sieve(b *testing.B)          { table1(b, "Sieve") }
func BenchmarkTable1_SmithWaterman(b *testing.B)  { table1(b, "SmithWaterman") }
func BenchmarkTable1_Strassen(b *testing.B)       { table1(b, "Strassen") }
func BenchmarkTable1_StreamCluster(b *testing.B)  { table1(b, "StreamCluster") }
func BenchmarkTable1_StreamCluster2(b *testing.B) { table1(b, "StreamCluster2") }

// BenchmarkFigure1 is the execution-time series of Figure 1: every
// benchmark at both configurations, time per run.
func BenchmarkFigure1(b *testing.B) {
	for _, e := range workloads.All() {
		for _, cfg := range []struct {
			label string
			mode  core.Mode
		}{{"baseline", core.Unverified}, {"verified", core.Full}} {
			b.Run(e.Name+"/"+cfg.label, func(b *testing.B) {
				benchProgram(b, e.Name, workloads.ScaleSmall, core.WithMode(cfg.mode))
			})
		}
	}
}

// benchFixture runs one harness micro fixture as a testing.B benchmark.
// The fixtures are shared with cmd/benchtable's MeasureMicros so the
// go-test numbers and the BENCH_table1.json trajectory measure the same
// operation.
func benchFixture(b *testing.B, fixture func(*core.Task) (func(int) error, error), opts ...core.Option) {
	b.Helper()
	rt := core.NewRuntime(opts...)
	if err := rt.Run(func(t *core.Task) error {
		step, err := fixture(t)
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicro_SetGet measures the latency of a fulfilled-promise
// round-trip (set + fast-path get) per mode.
func BenchmarkMicro_SetGet(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Ownership, core.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			benchFixture(b, harness.SetGetFixture, core.WithMode(mode))
		})
	}
}

// BenchmarkMicro_SetGetTraced is BenchmarkMicro_SetGet with every event
// staged per task and delivered through the trace collector into the
// binary encoder (sunk into io.Discard): the marginal cost of recording
// a verifiable trace. Compare against BenchmarkMicro_SetGet/full; the
// same pair is tracked as "setget-traced" in BENCH_table1.json.
func BenchmarkMicro_SetGetTraced(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			benchFixture(b, harness.SetGetFixture,
				core.WithMode(mode), core.TraceTo(trace.NewWriterSink(io.Discard)))
		})
	}
}

// BenchmarkMicro_BlockingGet measures a get that must block and be woken
// (one producer task per wait), the path that runs Algorithm 2.
func BenchmarkMicro_BlockingGet(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			rt := core.NewRuntime(core.WithMode(mode))
			if err := rt.Run(func(t *core.Task) error {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := core.NewPromise[int](t)
					if _, err := t.Async(func(c *core.Task) error {
						return p.Set(c, i)
					}, p); err != nil {
						return err
					}
					if _, err := p.Get(t); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMicro_Spawn measures task spawn+join with one moved promise.
func BenchmarkMicro_Spawn(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			benchFixture(b, harness.SpawnFixture, core.WithMode(mode))
		})
	}
}

// BenchmarkMicro_SpawnInstrumented is BenchmarkMicro_Spawn with a
// metrics registry installed, so every spawn pays the real per-site
// counter increments. The delta against the bare spawn row is the whole
// cost of turning observability on; the perf gate bounds it at one
// extra alloc and 10% ns.
func BenchmarkMicro_SpawnInstrumented(b *testing.B) {
	obs.Install(obs.NewRegistry())
	defer obs.Install(nil)
	for _, mode := range []core.Mode{core.Unverified, core.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			benchFixture(b, harness.SpawnFixture, core.WithMode(mode))
		})
	}
}

// BenchmarkMicro_ChainTraversal quantifies Algorithm 2's sensitivity to
// dependence-chain length, the mechanism behind the paper's Sieve outlier
// (2.07x): a chain of n tasks each awaiting the next one's promise is
// built and drained; every blocking Get in the chain traverses the
// blocked prefix before committing, so the verified runtime pays
// super-linear work in n while the baseline stays linear. Reported ns/op
// is per whole chain; compare unverified vs full at each length.
func BenchmarkMicro_ChainTraversal(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Full} {
		for _, n := range []int{1, 8, 64, 512} {
			b.Run(fmt.Sprintf("%s/chain-%d", mode, n), func(b *testing.B) {
				rt := core.NewRuntime(core.WithMode(mode))
				if err := rt.Run(func(t *core.Task) error {
					b.ResetTimer()
					for rep := 0; rep < b.N; rep++ {
						ps := make([]*core.Promise[int], n+1)
						for i := range ps {
							ps[i] = core.NewPromise[int](t)
						}
						for i := 0; i < n; i++ {
							i := i
							if _, err := t.Async(func(c *core.Task) error {
								v, err := ps[i+1].Get(c)
								if err != nil {
									return err
								}
								return ps[i].Set(c, v+1)
							}, ps[i]); err != nil {
								return err
							}
						}
						if err := ps[n].Set(t, 0); err != nil {
							return err
						}
						if v, err := ps[0].Get(t); err != nil || v != n {
							return fmt.Errorf("chain drained to %d (err %v)", v, err)
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkAblation_Detector compares the lock-free detector with the
// global-lock comparator on the synchronization-heavy Randomized workload.
func BenchmarkAblation_Detector(b *testing.B) {
	for _, cfg := range []struct {
		label string
		kind  core.DetectorKind
	}{{"lockfree", core.DetectLockFree}, {"globallock", core.DetectGlobalLock}} {
		b.Run(cfg.label, func(b *testing.B) {
			benchProgram(b, "Randomized", workloads.ScaleSmall,
				core.WithMode(core.Full), core.WithDetector(cfg.kind))
		})
	}
}

// BenchmarkAblation_OwnedTracking compares owned lists with owned
// counters (§6.2) on SmithWaterman, the benchmark whose owned lists grow
// largest (every promise allocated in the root).
func BenchmarkAblation_OwnedTracking(b *testing.B) {
	for _, cfg := range []struct {
		label string
		kind  core.OwnedTracking
	}{{"list", core.TrackList}, {"counter", core.TrackCounter}} {
		b.Run(cfg.label, func(b *testing.B) {
			benchProgram(b, "SmithWaterman", workloads.ScaleSmall,
				core.WithMode(core.Full), core.WithOwnedTracking(cfg.kind))
		})
	}
}

// BenchmarkAblation_Executor compares goroutine-per-task with the elastic
// worker pool on the task-heavy QSort workload.
func BenchmarkAblation_Executor(b *testing.B) {
	b.Run("goroutine-per-task", func(b *testing.B) {
		benchProgram(b, "QSort", workloads.ScaleSmall, core.WithMode(core.Full))
	})
	b.Run("elastic-pool", func(b *testing.B) {
		pool := sched.NewElastic(100 * time.Millisecond)
		benchProgram(b, "QSort", workloads.ScaleSmall,
			core.WithMode(core.Full), core.WithExecutor(pool.Execute))
	})
}

// BenchmarkMicro_FulfilledGet measures the read side of the fast path in
// isolation: Get on an already-fulfilled promise, which after the packed
// state word is a single atomic load (and provably 0 allocs/op — see
// TestFastPathAllocs).
func BenchmarkMicro_FulfilledGet(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Ownership, core.Full} {
		b.Run(mode.String(), func(b *testing.B) {
			benchFixture(b, harness.FulfilledGetFixture, core.WithMode(mode))
		})
	}
}

// BenchmarkMicro_SpawnNoMove measures the pure spawn-side cost of Async —
// no promise, no ownership transfer, trivial body — i.e. a QSort-style
// spawn storm stripped to the scheduler. The timed region covers only the
// spawns; the children drain outside it when Run returns.
func BenchmarkMicro_SpawnNoMove(b *testing.B) {
	for _, cfg := range []struct {
		label string
		opts  []core.Option
	}{
		{"unverified", []core.Option{core.WithMode(core.Unverified)}},
		{"full", []core.Option{core.WithMode(core.Full)}},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			rt := core.NewRuntime(cfg.opts...)
			if err := rt.Run(func(t *core.Task) error {
				nop := func(*core.Task) error { return nil }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := t.Async(nop); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMicro_SpawnBatch spawns harness.BatchWidth (64) children per
// iteration through ONE Task.AsyncBatch call and joins through their
// promises; reported ns/op is per BATCH — divide by 64 to compare with
// the per-spawn rows (BENCH_table1.json's "spawn-batch" row is already
// amortized). The go variant (default executor) amortizes only the
// accounting and ownership bookkeeping and still starts one goroutine
// per child; the elastic variant additionally drains batch children
// back-to-back from a worker's deque with no park/wake between them,
// which is where batching beats the per-spawn context-switch floor —
// that configuration is the tracked one.
func BenchmarkMicro_SpawnBatch(b *testing.B) {
	for _, mode := range []core.Mode{core.Unverified, core.Full} {
		b.Run(mode.String()+"/go", func(b *testing.B) {
			benchFixture(b, harness.SpawnBatchFixture, core.WithMode(mode))
		})
		b.Run(mode.String()+"/elastic", func(b *testing.B) {
			pool := sched.NewElastic(100 * time.Millisecond)
			defer pool.Close()
			benchFixture(b, harness.SpawnBatchFixture, core.WithMode(mode),
				core.WithExecutor(pool.Execute), core.WithBatchExecutor(pool.ExecuteBatch))
		})
	}
}

// TestSpawnPathAllocs pins the spawn path's allocation budget (DESIGN.md,
// "The spawn path"): a default spawn with one moved promise, joined
// through that promise, allocates exactly five objects under the policy
// modes — the promise, the user's body closure, the task block, the
// child's owned-list seed (deliberately its own small heap object; see
// Task.owned), and the 16-byte argument closure of the go statement that
// starts the task — and four under Unverified, which tracks no
// ownership. The move path materializes no intermediate slices. A join
// that blocks re-links the parent's waiter record, which its first block
// allocated during warm-up, so the counts are exact. A session's spawn
// reaches the shared scheduler as a Job and builds no go closure.
func TestSpawnPathAllocs(t *testing.T) {
	for _, cfg := range []struct {
		label string
		want  float64
		run   func(core.TaskFunc) error
	}{
		{"unverified", 4, core.NewRuntime(core.WithMode(core.Unverified)).Run},
		{"default", 5, core.NewRuntime(core.WithMode(core.Full)).Run},
		// A serving session's tasks reach the shared scheduler as jobs,
		// with no go statement: one object fewer than the default.
		{"session", 4, runInSession},
	} {
		t.Run(cfg.label, func(t *testing.T) {
			if err := cfg.run(func(task *core.Task) error {
				step, err := harness.SpawnFixture(task)
				if err != nil {
					return err
				}
				for i := 0; i < 200; i++ { // warm up: waiter record, scheduler workers
					if err := step(i); err != nil {
						return err
					}
				}
				got := testing.AllocsPerRun(500, func() {
					if err := step(0); err != nil {
						t.Error(err)
					}
				})
				if got != cfg.want {
					t.Errorf("%s spawn: %v allocs/op, want %v", cfg.label, got, cfg.want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runInSession runs body as the root of one session on a fresh pool.
func runInSession(body core.TaskFunc) error {
	p := serve.New(serve.WithMaxSessions(1))
	defer p.Close()
	s, err := p.Submit(context.Background(), "spawn-allocs", body)
	if err != nil {
		return err
	}
	return s.Wait()
}

// TestFastPathAllocs pins the allocation story of the lock-free fast
// paths (DESIGN.md):
//
//   - Get on a fulfilled promise allocates nothing, in every mode.
//   - A full NewPromise/Set/Get round-trip allocates exactly one object —
//     the promise itself. No done channel (the wakeup gate is lazy), no
//     label string (rendered on demand), nothing per-mode.
func TestFastPathAllocs(t *testing.T) {
	for _, mode := range []core.Mode{core.Unverified, core.Ownership, core.Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := core.NewRuntime(core.WithMode(mode))
			if err := rt.Run(func(task *core.Task) error {
				p := core.NewPromise[int](task)
				if err := p.Set(task, 7); err != nil {
					return err
				}
				if got := testing.AllocsPerRun(1000, func() {
					if v, err := p.Get(task); err != nil || v != 7 {
						t.Errorf("get: %v, %v", v, err)
					}
				}); got != 0 {
					t.Errorf("fulfilled Get: %v allocs/op, want 0", got)
				}
				if got := testing.AllocsPerRun(1000, func() {
					q := core.NewPromise[int](task)
					if err := q.Set(task, 1); err != nil {
						t.Errorf("set: %v", err)
					}
					if _, err := q.Get(task); err != nil {
						t.Errorf("get: %v", err)
					}
				}); got > 1 {
					t.Errorf("Set/Get round-trip: %v allocs/op, want <= 1 (the promise itself)", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
