package sched

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newIdleWorker builds a worker with an empty deque that no goroutine
// runs, for probing the searcher path directly.
func newIdleWorker() *worker {
	return &worker{buf: make([]Job, dequeCap), wake: make(chan struct{}, 1), rng: 1}
}

// TestElasticEmptyProbesTakeNoLock holds the deque locks of a searcher's
// own empty deque and of an empty victim: pop and steal must still come
// back empty-handed, because an empty deque is recognised from its
// published length (and the whole sweep from pending == 0) without its
// lock. pending is forced to 1 in the second round so the sweep cannot
// short-circuit and each victim's length is what skips it.
func TestElasticEmptyProbesTakeNoLock(t *testing.T) {
	e := NewElastic(time.Second)
	defer e.Close()
	self, victim := newIdleWorker(), newIdleWorker()
	snap := []*worker{self, victim}
	e.snapshot.Store(&snap)

	for _, pending := range []int64{0, 1} {
		e.pending.Store(pending)
		self.mu.Lock()
		victim.mu.Lock()
		done := make(chan [2]Job, 1)
		go func() { done <- [2]Job{self.pop(e), e.steal(self)} }()
		select {
		case got := <-done:
			if got[0] != nil || got[1] != nil {
				t.Errorf("pending %d: pop/steal on empty deques returned %v", pending, got)
			}
			victim.mu.Unlock()
			self.mu.Unlock()
		case <-time.After(5 * time.Second):
			t.Errorf("pending %d: pop/steal blocked on the lock of an empty deque", pending)
			victim.mu.Unlock()
			self.mu.Unlock()
			<-done
		}
	}
	e.pending.Store(0)

	// The skip is only for empty deques: a queued job is still found, and
	// claiming it republishes length 0 and returns pending to 0.
	ran := false
	if n := victim.pushBatch(e, []Job{Func(func() { ran = true })}, false); n != 1 {
		t.Fatalf("push onto an idle deque took %d jobs, want 1", n)
	}
	j := e.steal(self)
	if j == nil {
		t.Fatal("steal missed a queued job")
	}
	j.Run()
	if !ran || victim.length.Load() != 0 || e.pending.Load() != 0 {
		t.Fatalf("after the steal: ran %v, victim length %d, pending %d, want true, 0, 0",
			ran, victim.length.Load(), e.pending.Load())
	}
}

// TestElasticNoStrandingWhileWorkersPark races single-job pushes from
// producers outside the pool against workers that keep parking and being
// retired (a 1 ms idle timeout, with producer pauses longer than that).
// Each producer round pushes a holder job, which blocks its worker until
// its partner has run, and then the partner. The partner usually lands
// on the busy holder's deque (the burst target), so only a searcher can
// run it: a searcher that passes over that deque on a length or pending
// read of 0 parks, and the park's pending re-check is all that stands
// between the push and a stranded partner. Every job must run exactly
// once and pending must return to 0. It runs at GOMAXPROCS 1, where
// searcher and producer interleave only at preemption points, and at 4.
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
