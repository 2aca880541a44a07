package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestElasticRunsEverything(t *testing.T) {
	ex := NewElastic(10 * time.Millisecond)
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		wg.Add(1)
		ex.Execute(Func(func() { n.Add(1); wg.Done() }))
	}
	wg.Wait()
	if n.Load() != 500 {
		t.Fatalf("ran %d", n.Load())
	}
}

func TestElasticReusesIdleWorkers(t *testing.T) {
	ex := NewElastic(time.Second)
	var wg sync.WaitGroup
	// Sequential submissions: after the first, a parked worker should pick
	// most of them up.
	for i := 0; i < 50; i++ {
		wg.Add(1)
		ex.Execute(Func(func() { wg.Done() }))
		wg.Wait()
	}
	spawned, reused := ex.Stats()
	if spawned+reused != 50 {
		t.Fatalf("accounting: spawned %d + reused %d != 50", spawned, reused)
	}
	if reused == 0 {
		t.Fatal("no worker reuse in a sequential workload")
	}
}

func TestElasticGrowsUnderBlockedLoad(t *testing.T) {
	// All outstanding tasks block simultaneously; the pool must grow to
	// accommodate them rather than deadlock (the §6.3 requirement).
	ex := NewElastic(10 * time.Millisecond)
	const n = 64
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(n)
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		ex.Execute(Func(func() {
			entered.Done()
			<-gate // every task blocks until all have started
			done.Done()
		}))
	}
	ok := make(chan struct{})
	go func() { entered.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(10 * time.Second):
		t.Fatal("pool failed to grow: tasks starved")
	}
	close(gate)
	done.Wait()
	// Growth arrives through two paths now: submission-seeded workers and
	// the wake cascade's thieves. Together they must have reached one
	// worker per simultaneously blocked task.
	st := ex.SchedStats()
	if st.Spawned+st.Thieves < n {
		t.Fatalf("grew %d workers (%d seeded + %d thieves) for %d simultaneously blocked tasks",
			st.Spawned+st.Thieves, st.Spawned, st.Thieves, n)
	}
}

func TestElasticWorkersExitAfterIdle(t *testing.T) {
	ex := NewElastic(5 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	ex.Execute(Func(func() { wg.Done() }))
	wg.Wait()
	time.Sleep(50 * time.Millisecond) // worker should have parked and exited
	// The next Execute must spawn a fresh worker (the old one is gone), and
	// still run the job.
	before, _ := ex.Stats()
	wg.Add(1)
	ex.Execute(Func(func() { wg.Done() }))
	wg.Wait()
	after, _ := ex.Stats()
	if after != before+1 {
		t.Fatalf("expected a fresh spawn after idle exit (before=%d after=%d)", before, after)
	}
}

func TestElasticBurstReuseStats(t *testing.T) {
	// Two bursts separated by a quiet gap well inside the idle timeout:
	// the first burst grows the pool, the second should be served mostly
	// by reusing the workers the first burst parked.
	ex := NewElastic(2 * time.Second)
	const burst = 32
	runBurst := func() {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			ex.Execute(Func(func() { wg.Done() }))
		}
		wg.Wait()
	}
	runBurst()
	time.Sleep(50 * time.Millisecond) // let every worker park
	spawnedAfterFirst, _ := ex.Stats()
	if ex.Idle() == 0 {
		t.Fatal("no workers parked after the first burst")
	}
	runBurst()
	spawned, reused := ex.Stats()
	if spawned+reused != 2*burst {
		t.Fatalf("accounting: spawned %d + reused %d != %d", spawned, reused, 2*burst)
	}
	if reused == 0 {
		t.Fatalf("second burst reused nothing (spawned %d -> %d)", spawnedAfterFirst, spawned)
	}
}

func TestElasticIdleWorkersBoundGoroutines(t *testing.T) {
	// Regression for the v2 retirement path: after a burst and an idle
	// period longer than IdleTimeout, the parked population must drain to
	// zero and the workers' goroutines must actually exit.
	before := runtime.NumGoroutine()
	ex := NewElastic(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		ex.Execute(Func(func() { wg.Done() }))
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ex.Idle() == 0 && runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("idle workers not retired: %d parked, %d goroutines (baseline %d)",
		ex.Idle(), runtime.NumGoroutine(), before)
}

func TestElasticCloseDrainsAllGoroutines(t *testing.T) {
	// Close must retire parked workers, wait out busy ones, and stop the
	// cleaner — synchronously, not eventually. A long idle timeout makes
	// sure nothing could have expired on its own.
	before := runtime.NumGoroutine()
	ex := NewElastic(time.Hour)
	gate := make(chan struct{})
	var entered sync.WaitGroup
	for i := 0; i < 16; i++ {
		entered.Add(1)
		ex.Execute(Func(func() { entered.Done(); <-gate }))
	}
	entered.Wait()
	// Half the pool is still busy when Close starts; release them from a
	// side goroutine so Close's drain actually overlaps running jobs.
	go func() { time.Sleep(5 * time.Millisecond); close(gate) }()
	ex.Close()
	if live, busy := ex.Workers(); live != 0 || busy != 0 {
		t.Fatalf("after Close: live=%d busy=%d, want 0/0", live, busy)
	}
	if ex.Idle() != 0 {
		t.Fatalf("after Close: %d workers still parked", ex.Idle())
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through Close: %d, baseline %d", runtime.NumGoroutine(), before)
}

func TestElasticCloseIsIdempotentAndConcurrent(t *testing.T) {
	ex := NewElastic(time.Hour)
	var wg sync.WaitGroup
	wg.Add(1)
	ex.Execute(Func(func() { wg.Done() }))
	wg.Wait()
	var closers sync.WaitGroup
	for i := 0; i < 4; i++ {
		closers.Add(1)
		go func() { defer closers.Done(); ex.Close() }()
	}
	closers.Wait()
	// Execute after Close must still run the job (goroutine-per-task
	// fallback): a closed pool may not strand shutdown stragglers.
	wg.Add(1)
	ex.Execute(Func(func() { wg.Done() }))
	wg.Wait()
}

func TestElasticExecuteBatchRunsEverything(t *testing.T) {
	ex := NewElastic(10 * time.Millisecond)
	defer ex.Close()
	var n atomic.Int32
	var wg sync.WaitGroup
	// Several batches, including one larger than a worker deque, so the
	// multi-push spills across workers and spawned remainders.
	for _, size := range []int{1, 64, dequeCap + 50} {
		fs := make([]Job, size)
		wg.Add(size)
		for i := range fs {
			fs[i] = Func(func() { n.Add(1); wg.Done() })
		}
		ex.ExecuteBatch(fs)
	}
	wg.Wait()
	if want := int32(1 + 64 + dequeCap + 50); n.Load() != want {
		t.Fatalf("ran %d, want %d", n.Load(), want)
	}
}

func TestElasticExecuteBatchEmpty(t *testing.T) {
	ex := NewElastic(10 * time.Millisecond)
	defer ex.Close()
	ex.ExecuteBatch(nil) // must not wake or spawn anything
}

func TestElasticExecuteBatchBlockedJobsDoNotStrand(t *testing.T) {
	// A batch whose first jobs block must not strand the later jobs of the
	// same batch: the pool keeps spawning searchers, so every job still
	// runs even when earlier ones park on the gate forever-ish.
	ex := NewElastic(10 * time.Millisecond)
	defer ex.Close()
	gate := make(chan struct{})
	var wg sync.WaitGroup
	const blocked, free = 4, 16
	fs := make([]Job, 0, blocked+free)
	wg.Add(free)
	for i := 0; i < blocked; i++ {
		fs = append(fs, Func(func() { <-gate }))
	}
	var n atomic.Int32
	for i := 0; i < free; i++ {
		fs = append(fs, Func(func() { n.Add(1); wg.Done() }))
	}
	ex.ExecuteBatch(fs)
	wg.Wait()
	close(gate)
	if n.Load() != free {
		t.Fatalf("ran %d free jobs, want %d", n.Load(), free)
	}
}

func TestElasticExecuteBatchAfterClose(t *testing.T) {
	ex := NewElastic(10 * time.Millisecond)
	ex.Close()
	var n atomic.Int32
	var wg sync.WaitGroup
	wg.Add(8)
	fs := make([]Job, 8)
	for i := range fs {
		fs[i] = Func(func() { n.Add(1); wg.Done() })
	}
	ex.ExecuteBatch(fs) // degrades to goroutine-per-job, still runs all
	wg.Wait()
	if n.Load() != 8 {
		t.Fatalf("ran %d after Close, want 8", n.Load())
	}
}
