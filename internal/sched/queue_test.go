package sched

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestElasticSkewedProducersNothingLostOrDoubleRun hammers the queue from
// deliberately skewed producers: one producer submits the bulk of the
// jobs in tight bursts while others trickle. Every job must run exactly
// once — the per-job counters catch both a lost job (stranded in the
// queue) and a double run (two claimers handed the same slot).
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

// TestElasticCloseRunsQueuedJobs: jobs queued when Close starts all run
// before Close returns. Every job of the batch blocks until after Close
// has been called, so the hand-off starts one worker per claim while
// Close is already waiting, and most of the batch is still queued when
// its closed flag goes up.
func TestElasticCloseRunsQueuedJobs(t *testing.T) {
	ex := NewElastic(time.Hour)
	const n = 64
	gate := make(chan struct{})
	var ran atomic.Int32
	js := make([]Job, n)
	for i := range js {
		js[i] = Func(func() { <-gate; ran.Add(1) })
	}
	ex.ExecuteBatch(js)
	closed := make(chan struct{})
	go func() { ex.Close(); close(closed) }()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-closed:
		t.Fatal("Close returned while its queued jobs were blocked")
	default:
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("Close did not return after the gate opened: %+v", ex.SchedStats())
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d of %d queued jobs ran before Close returned", got, n)
	}
	if st := ex.SchedStats(); st.Live != 0 || st.Pending != 0 {
		t.Fatalf("after Close: live=%d pending=%d, want 0/0", st.Live, st.Pending)
	}
}

// TestElasticFIFOOrder: one worker claims a burst in submission order,
// and the queue resets once drained. The test goroutine plays the one
// searching worker, so ExecuteBatch finds a searcher and neither wakes
// nor starts another, and every claim goes through the worker's own
// claim step.
func TestElasticFIFOOrder(t *testing.T) {
	ex := NewElastic(time.Minute)
	defer ex.Close()
	ex.mu.Lock()
	ex.searching++
	ex.mu.Unlock()

	const burst = 100
	var order []int
	js := make([]Job, burst)
	for i := range js {
		js[i] = Func(func() { order = append(order, i) })
	}
	ex.ExecuteBatch(js)
	for {
		ex.mu.Lock()
		j := ex.claimLocked()
		ex.mu.Unlock()
		if j == nil {
			break
		}
		j.Run()
	}
	ex.mu.Lock()
	ex.searching--
	head, n := ex.head, len(ex.queue)
	ex.mu.Unlock()

	for i, got := range order {
		if got != i {
			t.Fatalf("claim %d ran job %d, want FIFO order", i, got)
		}
	}
	if len(order) != burst {
		t.Fatalf("claimed %d of %d jobs", len(order), burst)
	}
	if head != 0 || n != 0 {
		t.Fatalf("drained queue has head %d, len %d, want 0, 0", head, n)
	}
	if st := ex.SchedStats(); st.Spawned != 0 || st.Wakes != 0 || st.Reused != burst {
		t.Fatalf("a burst with a searcher present: %+v, want only %d reused", st, burst)
	}
}

// TestElasticNoStrandingWhileWorkersPark races single-job pushes from
// producers outside the pool against workers that keep parking and being
// retired (a 1 ms idle timeout, with producer pauses longer than that).
// Each producer round pushes a holder job, which blocks its worker until
// its partner has run, and then the partner. The partner is queued while
// the holder's worker is busy, so it runs only if the push found a
// searcher or supplied one: a worker that parks, or that a producer
// wakes, in the same instant must not leave it behind. Every job must
// run exactly once and pending must return to 0. It runs at GOMAXPROCS
// 1, where workers and producers interleave only at preemption points,
// and at 4.
func TestElasticNoStrandingWhileWorkersPark(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ok := t.Run("GOMAXPROCS="+strconv.Itoa(procs), func(t *testing.T) {
			e := NewElastic(time.Millisecond)
			defer e.Close()

			const producers, rounds = 4, 300
			const total = producers * rounds * 2
			var ran atomic.Int64
			var stranded atomic.Bool
			abort := make(chan struct{}) // closed once a partner is stranded
			var abortOnce sync.Once
			var prod sync.WaitGroup
			prod.Add(producers)
			for p := 0; p < producers; p++ {
				go func() {
					defer prod.Done()
					for i := 0; i < rounds && !stranded.Load(); i++ {
						started, partnerRan, holderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
						e.Execute(Func(func() {
							ran.Add(1)
							close(started)
							select {
							case <-partnerRan:
							case <-abort:
							}
							close(holderDone)
						}))
						<-started
						e.Execute(Func(func() {
							ran.Add(1)
							close(partnerRan)
						}))
						select {
						case <-holderDone:
						case <-time.After(10 * time.Second):
							stranded.Store(true)
							abortOnce.Do(func() { close(abort) }) // release the holder so Close can finish
							return
						}
						switch {
						case i%25 == 24:
							time.Sleep(3 * time.Millisecond) // let workers park and retire
						case i%4 == p%4:
							time.Sleep(20 * time.Microsecond) // let workers park
						}
					}
				}()
			}
			prod.Wait()
			if stranded.Load() {
				t.Fatalf("stranded: a partner job queued behind its blocked holder never ran; %+v", e.SchedStats())
			}
			if n := ran.Load(); n != total {
				t.Fatalf("%d jobs ran, want %d", n, total)
			}
			st := e.SchedStats()
			if st.Pending != 0 {
				t.Fatalf("pending = %d after every job ran, want 0", st.Pending)
			}
			if st.Spawned+st.Reused != total {
				t.Fatalf("submission accounting: spawned %d + reused %d != %d", st.Spawned, st.Reused, total)
			}
		})
		runtime.GOMAXPROCS(prev)
		if !ok {
			return
		}
	}
}
