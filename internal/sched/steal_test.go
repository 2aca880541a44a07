package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestElasticSkewedProducersNothingLostOrDoubleRun hammers the deque and
// steal paths from deliberately skewed producers: one producer submits
// the bulk of the jobs in tight bursts (landing on one target deque)
// while others trickle. Every job must run exactly once — the per-job
// counters catch both a lost job (stranded in a deque) and a double run
// (a pop/steal race handing the same slot out twice).
func TestElasticSkewedProducersNothingLostOrDoubleRun(t *testing.T) {
	ex := NewElastic(20 * time.Millisecond)
	defer ex.Close()

	const heavy, light, lightProducers = 2000, 100, 4
	total := heavy + light*lightProducers
	runs := make([]atomic.Int32, total)
	var wg sync.WaitGroup
	wg.Add(total)

	submit := func(id int) {
		ex.Execute(Func(func() {
			runs[id].Add(1)
			wg.Done()
		}))
	}

	var producers sync.WaitGroup
	producers.Add(1 + lightProducers)
	go func() { // the skewed producer: one long burst
		defer producers.Done()
		for i := 0; i < heavy; i++ {
			submit(i)
		}
	}()
	for p := 0; p < lightProducers; p++ {
		p := p
		go func() {
			defer producers.Done()
			for i := 0; i < light; i++ {
				submit(heavy + p*light + i)
				if i%8 == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}
	producers.Wait()
	wg.Wait()

	for id := range runs {
		if n := runs[id].Load(); n != 1 {
			t.Fatalf("job %d ran %d times, want exactly 1", id, n)
		}
	}
	st := ex.SchedStats()
	if st.Spawned+st.Reused != int64(total) {
		t.Fatalf("submission accounting: spawned %d + reused %d != %d submitted",
			st.Spawned, st.Reused, total)
	}
	if st.Pending != 0 {
		t.Fatalf("pending = %d after full drain, want 0", st.Pending)
	}
}

// TestElasticStealsAreCounted drives a skewed burst whose jobs all block
// until the whole batch has been distributed: the burst lands on one
// target deque, so every other worker that serves a job must have stolen
// it, and SchedStats must say so.
func TestElasticStealsAreCounted(t *testing.T) {
	ex := NewElastic(time.Second)
	defer ex.Close()

	const n = 64
	gate := make(chan struct{})
	var entered, done sync.WaitGroup
	entered.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		ex.Execute(Func(func() {
			entered.Done()
			<-gate
			done.Done()
		}))
	}
	entered.Wait() // all n block simultaneously: n workers each hold one job
	close(gate)
	done.Wait()

	st := ex.SchedStats()
	if st.Steals == 0 {
		t.Fatalf("no steals counted for a single-producer burst of %d blocked jobs: %+v", n, st)
	}
	if st.Spawned+st.Reused != n {
		t.Fatalf("submission accounting: %d + %d != %d", st.Spawned, st.Reused, n)
	}
}

// TestElasticWakeupsAreBatched pins the wakeup-batching invariant: a
// burst submitted by one goroutine wakes at most one parked worker per
// burst from the submitter itself; the rest of the ramp-up happens
// through the claim-time cascade, which stops as soon as the backlog is
// drained. With short jobs the woken workers recycle quickly, so the
// total wake+spawn events stay well below one per task — the v2 design
// paid exactly one per task.
func TestElasticWakeupsAreBatched(t *testing.T) {
	ex := NewElastic(time.Minute) // workers never expire during the test
	defer ex.Close()

	// Warm the pool so a parked population exists, then let it park.
	const warm = 8
	var wg sync.WaitGroup
	gate := make(chan struct{})
	wg.Add(warm)
	for i := 0; i < warm; i++ {
		ex.Execute(Func(func() { wg.Done(); <-gate }))
	}
	wg.Wait()
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for ex.SchedStats().Idle < warm && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	base := ex.SchedStats()

	const burst = 512
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		ex.Execute(Func(func() { wg.Done() }))
	}
	wg.Wait()

	st := ex.SchedStats()
	wakeEvents := (st.Wakes - base.Wakes) + (st.Spawned - base.Spawned) + (st.Thieves - base.Thieves)
	if wakeEvents > burst/2 {
		t.Fatalf("wakeups not batched: %d wake/spawn events for a %d-job burst of trivial tasks",
			wakeEvents, burst)
	}
	if st.Spawned+st.Reused != base.Spawned+base.Reused+burst {
		t.Fatalf("submission accounting drifted: %+v vs base %+v", st, base)
	}
}

// TestElasticCloseDrainsStrandedDequeJobs pins the shutdown-race fix: a
// submission that lands on a busy worker's deque through the TryLock
// fast path AFTER the closed flag is up (when ensureSearcher refuses to
// create searchers) must still run — Close's deque sweep re-launches
// it — even though the worker holding the deque never finishes its job
// until after the sweep.
func TestElasticCloseDrainsStrandedDequeJobs(t *testing.T) {
	ex := NewElastic(time.Hour)
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	ex.Execute(Func(func() { entered.Done(); <-gate })) // the busy target worker
	entered.Wait()
	// Wait for the worker to leave the searching state, so ensureSearcher
	// would have no searcher to lean on.
	deadline := time.Now().Add(5 * time.Second)
	for ex.searching.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Reproduce the race window deterministically: the closed flag is up
	// (Close's first phase) but the deque sweep has not run yet.
	ex.mu.Lock()
	ex.closed = true
	ex.mu.Unlock()
	ran := make(chan struct{})
	ex.Execute(Func(func() { close(ran) }))
	// Now let Close run its sweep. The busy worker is still blocked, so
	// only the sweep can rescue a job stranded on its deque.
	closed := make(chan struct{})
	go func() { ex.Close(); close(closed) }()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("job submitted during the Close race never ran")
	}
	close(gate) // release the busy worker so Close can finish
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not complete after the busy worker finished")
	}
}

// TestElasticDequeOverflowFallsBackToSpawn fills one target deque beyond
// its bound while every worker is blocked: the overflow submissions must
// seed fresh workers rather than being dropped or blocking the
// submitter.
func TestElasticDequeOverflowFallsBackToSpawn(t *testing.T) {
	ex := NewElastic(time.Second)
	defer ex.Close()

	const n = dequeCap + 64 // provably beyond one ring
	gate := make(chan struct{})
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		ex.Execute(Func(func() {
			<-gate
			done.Done()
		}))
	}
	// Every job blocks; the pool must have grown enough workers that all
	// n are held simultaneously (the §6.3 obligation, past a full ring).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ex.SchedStats().Busy == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if busy := ex.SchedStats().Busy; busy != n {
		t.Fatalf("only %d of %d jobs running concurrently", busy, n)
	}
	close(gate)
	done.Wait()
}
