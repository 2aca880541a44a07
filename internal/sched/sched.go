// Package sched provides task executors for the promise runtime.
//
// The paper's execution strategy (§6.3) spawns a new thread whenever all
// existing threads are in use, because promise-blocked tasks have no
// a-priori bound: a fixed-size pool can starve and self-deadlock. In Go
// core's default executor — a plain go statement per task — has exactly
// the required unbounded-growth semantics, with the runtime multiplexing
// goroutines onto OS threads.
//
// Elastic mirrors the paper's pool more literally: one FIFO of Jobs,
// served by idle workers when there are any and by one more goroutine
// when there are none, so the worker count tracks the peak number of
// simultaneously live tasks. One Elastic may be shared by many runtimes
// (the serving layer runs every session, and every task those sessions
// spawn, on one pool), and Close returns only after every pool goroutine
// has exited.
package sched

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Job is one unit of work: a core task (core.Job is the same type) or a
// serving session. It is an alias of the interface literal, so *Elastic's
// Execute and ExecuteBatch satisfy core.Executor without either package
// importing the other.
type Job = interface{ Run() }

// Func adapts a plain func() to a Job.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// Elastic is a grow-on-demand worker pool: one mutex-guarded FIFO of
// jobs plus a LIFO stack of parked workers.
//
// A worker that is not running a job is searching. The pool keeps one
// invariant under its mutex: while the queue is non-empty, some worker is
// searching (counting those just woken or started). ExecuteBatch appends
// a whole batch under one lock and wakes or starts a searcher only when
// none exists, so a burst costs one wakeup, not one per job. A searcher
// that claims a job passes the duty on — wakes a parked worker, or starts
// one — only if jobs remain and no other searcher exists, and it does so
// before it runs the job, so a job that blocks forever never strands the
// ones behind it. When every job blocks, each claim grows the pool by one
// worker (§6.3); when jobs are short, the hand-off stops as soon as the
// queue drains. After a job a worker claims the next one under the same
// lock, with no park in between; only an empty queue parks it.
type Elastic struct {
	idleTimeout time.Duration

	mu        sync.Mutex
	queue     []Job // queue[head:] is pending, oldest first
	head      int
	searching int       // workers not running a job, woken and started ones included
	parked    []*worker // LIFO: oldest park at index 0, newest at the top
	cleanerOn bool
	closed    bool

	// Counters for SchedStats, guarded by mu.
	spawned, reused, thieves, wakes, live, busy int64

	// stop wakes the cleaner at Close instead of letting it sleep out
	// its sweep interval; workers and cleaners let Close wait for every
	// pool goroutine to exit.
	stop     chan struct{}
	workers  sync.WaitGroup
	cleaners sync.WaitGroup
}

// worker is a pool goroutine's handle: its wakeup channel and the park
// stamp the cleaner reads.
type worker struct {
	wake     chan struct{} // cap 1; closed to retire, sent to wake
	parkedAt int64         // obs.Now stamp of the park; guarded by Elastic.mu
}

// NewElastic creates an elastic pool. idleTimeout controls how long an
// idle worker waits for new work before exiting; zero selects a default
// of 50ms.
func NewElastic(idleTimeout time.Duration) *Elastic {
	if idleTimeout <= 0 {
		idleTimeout = 50 * time.Millisecond
	}
	return &Elastic{idleTimeout: idleTimeout, stop: make(chan struct{})}
}

// Execute schedules j, growing the pool if no worker can absorb it. It
// never blocks waiting for a worker. After Close, Execute degrades to
// goroutine-per-task: a closed pool must still never bound the number of
// concurrently blocked tasks (the §6.3 requirement holds for stragglers
// submitted during shutdown), it just stops keeping workers. It is
// ExecuteBatch of one job; the one-element array stays on the stack.
func (e *Elastic) Execute(j Job) {
	one := [1]Job{j}
	e.ExecuteBatch(one[:])
}

// ExecuteBatch schedules every job in js, in order, under one lock
// acquisition, and supplies a searcher only when none exists. A batch
// that had to start a worker counts one job as Spawned, the rest Reused.
func (e *Elastic) ExecuteBatch(js []Job) {
	if len(js) == 0 {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.spawned += int64(len(js))
		e.mu.Unlock()
		for _, j := range js {
			go j.Run()
		}
		return
	}
	e.push(js)
	e.reused += int64(len(js))
	w, fresh := e.supplySearcherLocked()
	if fresh {
		e.spawned++
		e.reused--
	}
	e.mu.Unlock()
	e.deliver(w, fresh)
}

// push appends js to the queue. When the slice is full and at least half
// of it is claimed slots, the pending jobs move to the front instead of
// the slice growing, so a queue that never quite drains stays bounded by
// twice its backlog.
func (e *Elastic) push(js []Job) {
	if n := len(e.queue); n+len(js) > cap(e.queue) && e.head >= n/2 {
		m := copy(e.queue, e.queue[e.head:])
		clear(e.queue[m:n])
		e.queue, e.head = e.queue[:m], 0
	}
	e.queue = append(e.queue, js...)
	if m := smet(); m != nil {
		m.depth.Add(int64(len(js)))
	}
}

// claimLocked pops the oldest queued job, or returns nil on an empty
// queue. A drained queue resets to the front of its slice.
func (e *Elastic) claimLocked() Job {
	if e.head == len(e.queue) {
		return nil
	}
	j := e.queue[e.head]
	e.queue[e.head] = nil
	if e.head++; e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
	}
	if m := smet(); m != nil {
		m.depth.Dec()
	}
	return j
}

// supplySearcherLocked keeps the invariant after the queue grew or a
// searcher claimed a job: if jobs are queued and no searcher is left, it
// takes the top parked worker off the stack, or registers a fresh one (so
// a concurrent Close waits for it), and counts it as searching. deliver
// wakes or starts it after the unlock.
func (e *Elastic) supplySearcherLocked() (w *worker, fresh bool) {
	if e.searching > 0 || e.head == len(e.queue) {
		return nil, false
	}
	e.searching++
	if n := len(e.parked); n > 0 {
		w = e.parked[n-1]
		e.parked[n-1] = nil
		e.parked = e.parked[:n-1]
		e.wakes++
		return w, false
	}
	e.workers.Add(1)
	e.live++
	return &worker{wake: make(chan struct{}, 1)}, true
}

// deliver wakes or starts the worker supplySearcherLocked chose. The wake
// send never blocks: only the caller that took w off the parked stack
// sends to it, and w takes the token before it can park again.
func (e *Elastic) deliver(w *worker, fresh bool) {
	switch {
	case fresh:
		go e.run(w)
	case w != nil:
		if m := smet(); m != nil {
			m.wakes.Inc()
		}
		w.wake <- struct{}{}
	}
}

// run is the worker loop: claim the oldest job, hand the searcher duty on
// if jobs remain, run the job, and come back for the next under the lock.
// An empty queue parks the worker, or ends it once the pool is closed, so
// every job queued before Close runs before Close returns.
func (e *Elastic) run(w *worker) {
	defer e.workers.Done()
	e.mu.Lock()
	for {
		j := e.claimLocked()
		e.searching--
		if j != nil {
			next, fresh := e.supplySearcherLocked()
			if fresh {
				e.thieves++
			}
			e.busy++
			e.mu.Unlock()
			e.deliver(next, fresh)
			j.Run()
			e.mu.Lock()
			e.busy--
			e.searching++
			continue
		}
		if e.closed {
			break
		}
		w.parkedAt = obs.Now()
		e.parked = append(e.parked, w)
		if !e.cleanerOn {
			e.cleanerOn = true
			e.cleaners.Add(1)
			go e.cleaner()
		}
		e.mu.Unlock()
		if m := smet(); m != nil {
			m.parks.Inc()
		}
		_, ok := <-w.wake
		e.mu.Lock()
		if !ok {
			break // retired by the cleaner or released by Close
		}
		// Woken by a submitter or a claimer, which counted us as searching.
	}
	e.live--
	e.mu.Unlock()
}

// cleaner retires workers parked for longer than the idle timeout. It runs
// only while the idle stack is non-empty: the last sweep that finds the
// stack empty exits, and the next park starts a fresh cleaner. Because
// parkedAt is assigned in park order, the stack is sorted oldest-first and
// each sweep strips a prefix.
func (e *Elastic) cleaner() {
	defer e.cleaners.Done()
	ticker := time.NewTicker(max(e.idleTimeout/4, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return // Close retires the parked workers itself
		case <-ticker.C:
		}
		cutoff := obs.Now() - int64(e.idleTimeout)
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		n := 0
		for ; n < len(e.parked) && e.parked[n].parkedAt < cutoff; n++ {
			close(e.parked[n].wake) // the worker sees ok=false and exits
		}
		m := copy(e.parked, e.parked[n:])
		clear(e.parked[m:])
		e.parked = e.parked[:m]
		stop := m == 0
		if stop {
			e.cleanerOn = false
		}
		e.mu.Unlock()
		if stop {
			return
		}
	}
}

// Close retires the pool: no new workers are kept after it is called, every
// parked worker is released, and Close blocks until all pool goroutines —
// busy workers included, which finish their current job and every job
// still queued first — and the cleaner have exited. Execute after Close
// falls back to goroutine-per-task. Close is idempotent and safe to call
// concurrently.
func (e *Elastic) Close() {
	e.mu.Lock()
	if !e.closed {
		close(e.stop)
	}
	e.closed = true
	for _, w := range e.parked {
		close(w.wake)
	}
	e.parked = nil
	e.cleanerOn = false
	e.mu.Unlock()
	e.workers.Wait()
	e.cleaners.Wait()
}

// SchedStats is the pool's full counter set.
type SchedStats struct {
	Spawned int64 // submissions whose ExecuteBatch started a worker
	Reused  int64 // submissions served by existing workers
	Thieves int64 // workers started by a claimer's hand-off
	Steals  int64 // always 0: one shared queue has nothing to steal from
	Wakes   int64 // parked-worker wakeups
	Live    int64 // current worker goroutines
	Busy    int64 // workers currently running a job
	Idle    int64 // workers currently parked
	Pending int64 // jobs queued, not yet claimed
}

// SchedStats returns a snapshot of every pool counter. Every submitted
// job increments exactly one of Spawned and Reused, so Spawned+Reused is
// the submission total; Thieves counts the workers the hand-off started
// beyond those. After Close, Live, Busy and Idle are zero.
func (e *Elastic) SchedStats() SchedStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return SchedStats{
		Spawned: e.spawned,
		Reused:  e.reused,
		Thieves: e.thieves,
		Wakes:   e.wakes,
		Live:    e.live,
		Busy:    e.busy,
		Idle:    int64(len(e.parked)),
		Pending: int64(len(e.queue) - e.head),
	}
}
