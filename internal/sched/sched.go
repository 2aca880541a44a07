// Package sched provides task executors for the promise runtime.
//
// The paper's execution strategy (§6.3) spawns a new thread whenever all
// existing threads are in use, because promise-blocked tasks have no
// a-priori bound: a fixed-size pool can starve and self-deadlock. In Go
// core's default executor — a plain go statement per task — has exactly
// the required unbounded-growth semantics, with the runtime multiplexing
// goroutines onto OS threads.
//
// Elastic is an alternative that mirrors the paper's pool more literally:
// it reuses idle workers when one is available and grows by one goroutine
// when none is, so the steady-state worker count tracks the peak number of
// simultaneously live tasks rather than the total task count.
//
// The pool runs Jobs, not closures: a core task and a serving session are
// each their own Job, so handing one to the pool allocates nothing beyond
// the object itself. One Elastic may be shared by many runtimes (the
// serving layer runs every session, and every task those sessions spawn,
// on a single pool), and Close retires it deterministically — parked
// workers, busy workers, and the cleaner goroutine all exit before Close
// returns, so a server can assert full drain at shutdown.
package sched

import (
	"sync"
	"sync/atomic"
	"time"
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

// dequeCap bounds each worker's ring deque. A power of two so the
// head/tail cursors index with a mask. 256 jobs absorbs any realistic
// submission burst from one spawning task; a full deque falls back to
// seeding a fresh worker, which is the pre-deque behaviour.
const (
	dequeCap  = 256
	dequeMask = dequeCap - 1
)

// Elastic is a grow-on-demand worker pool built around bounded per-worker
// ring deques and randomized work stealing (v3).
//
// The v2 design handed every submission to exactly one worker through a
// 1-slot channel, waking (or spawning) one worker per task: a spawn storm
// paid a park/unpark context switch per submission, serialized on the
// parked-stack mutex. v3 decouples submission from wakeup:
//
//   - Execute appends the job to a worker's bounded ring deque (the
//     "target": the most recently spawned or woken worker) and only
//     guarantees that at least one SEARCHING worker exists — a worker
//     that is draining deques rather than running a job. A burst of N
//     submissions therefore wakes at most one parked worker; the rest of
//     the pool ramps up through the wake cascade below, off the
//     submitter's critical path.
//   - Workers drain their own deque newest-first (cache warmth) and then
//     steal oldest-first from a random other worker. Stealing is what
//     redistributes a burst that landed on one deque.
//   - The wake cascade: a searching worker that claims a job hands its
//     searcher duty off before running it — if queued jobs remain and no
//     other searcher exists, it wakes one parked worker (or spawns a
//     thief). Worker count still grows one-per-blocked-task when every
//     job blocks (the §6.3 requirement), but short tasks stop the
//     cascade early and are served by a handful of workers.
//
// Liveness invariant (what makes the deques safe under §6.3): whenever
// pending > 0 — a job is queued and unclaimed — at least one searching
// worker exists, or one is about to be created. Producers enforce it
// after every push (ensureSearcher), claimers re-establish it before
// every job (the cascade), and parking workers re-check pending after
// decrementing searching, so the seq-cst total order guarantees one side
// of every push/park race sees the other. A queued job can therefore
// never be stranded behind a blocked one: some worker that is not
// running a job is always on its way.
type Elastic struct {
	idleTimeout time.Duration

	mu        sync.Mutex
	parked    []*worker // LIFO: oldest park at index 0, newest at the top
	all       []*worker // every live worker (steal sweep source of truth)
	cleanerOn bool
	closed    bool

	// snapshot is a copy-on-write view of all, so the steal sweep never
	// takes the pool lock. target is the burst landing pad: the most
	// recently spawned or woken worker, whose deque absorbs submissions.
	snapshot atomic.Pointer[[]*worker]
	target   atomic.Pointer[worker]

	// stop wakes the cleaner immediately at Close instead of letting it
	// sleep out its sweep interval; workers and cleaners let Close block
	// until every pool goroutine has actually exited.
	stop     chan struct{}
	workers  sync.WaitGroup
	cleaners sync.WaitGroup

	// pending counts queued-but-unclaimed jobs across every deque;
	// searching counts workers between jobs (draining, stealing, or about
	// to park). Together they carry the liveness invariant above.
	pending   atomic.Int64
	searching atomic.Int64

	spawned atomic.Int64 // submissions that seeded a fresh worker
	reused  atomic.Int64 // submissions served by an existing worker
	thieves atomic.Int64 // unseeded workers spawned to drain backlog
	steals  atomic.Int64 // jobs claimed from another worker's deque
	wakes   atomic.Int64 // parked workers woken
	live    atomic.Int64
	busy    atomic.Int64
	rngSeed atomic.Uint64
}

// worker is one pool goroutine: a bounded ring deque of queued jobs, a
// wakeup channel, and the park bookkeeping. The deque is guarded by a
// plain mutex — push, pop, and steal are a handful of instructions under
// it, submitters use TryLock so a contended deque diverts the push
// rather than serializing the burst, and the randomized victim selection
// keeps thieves from convoying on one lock.
type worker struct {
	mu      sync.Mutex
	buf     []Job
	head    uint64 // steal side: oldest job
	tail    uint64 // owner side: push/pop newest
	retired bool   // set under mu before the final drain; refuses pushes

	wake     chan struct{} // cap 1; closed to retire, sent to wake
	parkedAt time.Time     // guarded by Elastic.mu while parked
	rng      uint64        // xorshift state for steal victim selection
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

// pushBatch appends as many jobs from js as fit, under one lock
// acquisition and one pending update, returning how many were taken: 0
// when the worker is retired or the ring is full, or — when try is set —
// when the deque lock is contended (the submitter has cheaper places to
// put the jobs than a queue behind this lock). The pending update is
// inside the critical section so a claimer can never observe a job
// without its count.
func (w *worker) pushBatch(e *Elastic, js []Job, try bool) int {
	if try {
		if !w.mu.TryLock() {
			return 0
		}
	} else {
		w.mu.Lock()
	}
	if w.retired {
		w.mu.Unlock()
		return 0
	}
	n := 0
	for n < len(js) && w.tail-w.head < dequeCap {
		w.buf[w.tail&dequeMask] = js[n]
		w.tail++
		n++
	}
	if n > 0 {
		e.pending.Add(int64(n))
	}
	w.mu.Unlock()
	if m := smet(); m != nil && n > 0 {
		m.depth.Add(int64(n))
	}
	return n
}

// pop takes the newest job (the owner side: most recently pushed, cache
// warm), or nil.
func (w *worker) pop(e *Elastic) Job {
	w.mu.Lock()
	if w.tail == w.head {
		w.mu.Unlock()
		return nil
	}
	w.tail--
	j := w.buf[w.tail&dequeMask]
	w.buf[w.tail&dequeMask] = nil
	e.pending.Add(-1)
	w.mu.Unlock()
	if m := smet(); m != nil {
		m.depth.Dec()
	}
	return j
}

// stealFrom takes the oldest job (FIFO from the steal side, so a burst
// retains submission order across the pool), or nil.
func (w *worker) stealFrom(e *Elastic) Job {
	w.mu.Lock()
	if w.tail == w.head {
		w.mu.Unlock()
		return nil
	}
	j := w.buf[w.head&dequeMask]
	w.buf[w.head&dequeMask] = nil
	w.head++
	e.pending.Add(-1)
	w.mu.Unlock()
	if m := smet(); m != nil {
		m.depth.Dec()
	}
	return j
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

// ExecuteBatch schedules every job in js, in order. Each absorbing deque
// is filled under ONE lock acquisition with ONE pending update
// (pushBatch), followed by one searcher check or wake for the whole
// chunk, so a burst pays the submission machinery per chunk rather than
// per job.
func (e *Elastic) ExecuteBatch(js []Job) {
	for len(js) > 0 {
		// Burst fast path: land as much of the batch as fits on the
		// current target deque. One TryLock'd push plus the searcher
		// check — no wakeup, no pool lock.
		if t := e.target.Load(); t != nil {
			if n := t.pushBatch(e, js, true); n > 0 {
				e.reused.Add(int64(n))
				js = js[n:]
				e.ensureSearcher()
				continue
			}
		}
		// No target (cold pool), or its deque is contended/full/retired:
		// claim a parked worker, seed it with a chunk, and make it the
		// new target.
		if w := e.popParked(); w != nil {
			if n := w.pushBatch(e, js, false); n > 0 {
				e.reused.Add(int64(n))
				js = js[n:]
				e.target.Store(w)
				e.wake(w)
				continue
			}
			e.wake(w) // full deque: wake it to drain, seed fresh below
		}
		// Seed a fresh worker with one job; it becomes the target, so the
		// next iteration pushes the remainder onto its empty deque. On a
		// closed pool this degrades to one bare goroutine per job.
		e.spawnWorker(js[0], &e.spawned)
		js = js[1:]
	}
}

// wake marks w searching and delivers its wake token. The searching
// increment precedes the send so that a concurrent ensureSearcher
// observes the searcher before the woken worker runs a single
// instruction. The send can never block: a token is sent only by the
// claimer that removed w from the parked list, and w consumes it before
// it can park again.
func (e *Elastic) wake(w *worker) {
	e.searching.Add(1)
	e.wakes.Add(1)
	if m := smet(); m != nil {
		m.wakes.Inc()
		m.unparks.Inc()
	}
	w.wake <- struct{}{}
}

// ensureSearcher re-establishes the liveness invariant after a push or a
// claim: if queued jobs exist but no worker is searching for them, wake a
// parked worker, or spawn an unseeded thief when none is parked. Callers
// invoke it only when pending may be non-zero.
func (e *Elastic) ensureSearcher() {
	if e.searching.Load() > 0 {
		return
	}
	if w := e.popParked(); w != nil {
		e.wake(w)
		return
	}
	e.spawnWorker(nil, &e.thieves)
}

// spawnWorker registers and starts a new worker, seeded with j (which it
// runs first) or unseeded (a thief: it goes straight to stealing).
// counter attributes the spawn (submission-seeded vs thief). On a closed
// pool the seed falls back to a bare goroutine.
func (e *Elastic) spawnWorker(j Job, counter *atomic.Int64) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		if j != nil {
			// The goroutine-per-task fallback still seeded a carrier for
			// this submission: count it, so spawned+reused keeps equalling
			// the submission total across the shutdown window.
			counter.Add(1)
			go j.Run()
		}
		return
	}
	w := &worker{
		buf:  make([]Job, dequeCap),
		wake: make(chan struct{}, 1),
		rng:  e.rngSeed.Add(0x9e3779b97f4a7c15) | 1,
	}
	// The worker is registered under the same critical section that
	// checked closed, so a concurrent Close is guaranteed to wait for it;
	// it enters the steal snapshot before it can become the target, so a
	// job pushed to it is always visible to the sweep.
	//
	// The published snapshot is a length-capped view of the append-only
	// e.all: growth appends in place (amortized O(1), not a full copy
	// per spawn — a 10k-worker storm must not pay O(n^2) on the spawn
	// path), which is safe for concurrent stealers because their view's
	// length was fixed before this element existed, and the atomic
	// pointer store publishes the new element before any reader can
	// index it. Only worker exit (rare) rebuilds the array, because
	// removal would otherwise mutate slots visible through older views.
	e.workers.Add(1)
	e.all = append(e.all, w)
	snap := e.all[:len(e.all):len(e.all)]
	e.snapshot.Store(&snap)
	e.mu.Unlock()
	counter.Add(1)
	e.live.Add(1)
	e.searching.Add(1) // every new worker starts in searching state
	e.target.Store(w)
	go w.run(e, j)
}

// popParked claims the most recently parked worker, or nil. A claimed
// worker is off the stack, so the cleaner can no longer retire it and no
// other claimer can wake it.
func (e *Elastic) popParked() *worker {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.parked)
	if n == 0 {
		return nil
	}
	w := e.parked[n-1]
	e.parked[n-1] = nil
	e.parked = e.parked[:n-1]
	return w
}

// tryUnpark removes w from the parked stack if it is still there,
// cancelling its own park. Reports false when a claimer (or the cleaner)
// got to it first — in which case a wake token or channel close is
// already on its way.
func (e *Elastic) tryUnpark(w *worker) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := len(e.parked) - 1; i >= 0; i-- {
		if e.parked[i] == w {
			copy(e.parked[i:], e.parked[i+1:])
			e.parked[len(e.parked)-1] = nil
			e.parked = e.parked[:len(e.parked)-1]
			if m := smet(); m != nil {
				m.unparks.Inc()
			}
			return true
		}
	}
	return false
}

// run is the worker loop: run the seed, then alternate claiming jobs
// (own deque, then steal) with parking. The searching counter brackets
// every between-jobs interval; see the liveness invariant on Elastic.
func (w *worker) run(e *Elastic, j Job) {
	defer func() {
		w.drainOnExit(e)
		e.mu.Lock()
		// Exit rebuilds the worker array instead of swap-deleting in
		// place: older published snapshots share this backing, and a
		// stealer may be mid-iteration over them.
		rebuilt := make([]*worker, 0, len(e.all))
		for _, x := range e.all {
			if x != w {
				rebuilt = append(rebuilt, x)
			}
		}
		e.all = rebuilt
		snap := e.all[:len(e.all):len(e.all)]
		e.snapshot.Store(&snap)
		e.mu.Unlock()
		e.live.Add(-1)
		e.workers.Done()
	}()
	for {
		if j == nil {
			if j = e.findWork(w); j == nil {
				return // retired or pool closed
			}
		}
		// Hand searcher duty off BEFORE committing to the job: if j blocks
		// forever, the queued jobs behind it still have a worker on the
		// way. This is the wake cascade — each claimed job wakes at most
		// one more worker, and only while backlog remains.
		e.searching.Add(-1)
		if e.pending.Load() > 0 {
			e.ensureSearcher()
		}
		e.busy.Add(1)
		j.Run()
		e.busy.Add(-1)
		j = nil
		e.searching.Add(1)
	}
}

// findWork claims the next job for w: own deque first, then a randomized
// steal sweep, then park and wait. Returns nil when the worker should
// exit (cleaner retirement or pool close). Caller holds searcher status;
// on a nil return it has been released.
func (e *Elastic) findWork(w *worker) Job {
	for {
		if j := w.pop(e); j != nil {
			return j
		}
		if j := e.steal(w); j != nil {
			return j
		}
		// Nothing found: park. Register on the stack first, then release
		// searcher status, then re-check pending — the mirror image of the
		// producer's push-then-check-searching. Under the seq-cst total
		// order one side of any race sees the other, so a job pushed
		// concurrently with this park either finds searching > 0 already
		// handled, or is seen by the pending re-check below.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			e.searching.Add(-1)
			return nil
		}
		w.parkedAt = time.Now()
		e.parked = append(e.parked, w)
		if m := smet(); m != nil {
			m.parks.Inc()
		}
		startCleaner := !e.cleanerOn
		if startCleaner {
			e.cleanerOn = true
			e.cleaners.Add(1)
		}
		e.mu.Unlock()
		if startCleaner {
			go e.cleaner()
		}
		e.searching.Add(-1)
		if e.pending.Load() > 0 && e.tryUnpark(w) {
			e.searching.Add(1)
			continue
		}
		if _, ok := <-w.wake; !ok {
			return nil // retired by the cleaner or released by Close
		}
		// Woken by a claimer, which already restored our searching count
		// (and usually seeded our deque).
	}
}

// steal sweeps the worker snapshot from a random start, taking the
// oldest job of the first non-empty deque. The randomized start keeps
// thieves from convoying on the same victim.
func (e *Elastic) steal(w *worker) Job {
	snap := e.snapshot.Load()
	if snap == nil {
		return nil
	}
	victims := *snap
	n := len(victims)
	if n == 0 {
		return nil
	}
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	start := int(w.rng % uint64(n))
	for i := 0; i < n; i++ {
		v := victims[(start+i)%n]
		if v == w {
			continue
		}
		if j := v.stealFrom(e); j != nil {
			e.steals.Add(1)
			if m := smet(); m != nil {
				m.steals.Inc()
			}
			return j
		}
	}
	return nil
}

// drainOnExit refuses further pushes and re-launches any job still
// queued on the dying worker's deque as a bare goroutine. Leftovers are
// rare — a retiring worker parked with an empty deque — but a burst can
// land on a parked target between its park and its retirement, and those
// jobs must survive the worker (§6.3: never strand, never bound).
func (w *worker) drainOnExit(e *Elastic) {
	w.mu.Lock()
	w.retired = true
	var leftover []Job
	for w.head != w.tail {
		leftover = append(leftover, w.buf[w.head&dequeMask])
		w.buf[w.head&dequeMask] = nil
		w.head++
	}
	w.mu.Unlock()
	if len(leftover) == 0 {
		return
	}
	e.pending.Add(-int64(len(leftover)))
	if m := smet(); m != nil {
		m.depth.Add(-int64(len(leftover)))
	}
	for _, j := range leftover {
		go j.Run()
	}
}

// cleaner retires workers parked for longer than the idle timeout. It runs
// only while the idle stack is non-empty: the last sweep that finds the
// stack empty exits, and the next park starts a fresh cleaner. Because
// parkedAt is assigned in park order, the stack is sorted oldest-first and
// each sweep strips a prefix.
func (e *Elastic) cleaner() {
	defer e.cleaners.Done()
	interval := e.idleTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return // Close retires the parked workers itself
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-e.idleTimeout)
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		n := 0
		for n < len(e.parked) && e.parked[n].parkedAt.Before(cutoff) {
			n++
		}
		expired := make([]*worker, n)
		copy(expired, e.parked[:n])
		remaining := copy(e.parked, e.parked[n:])
		for i := remaining; i < len(e.parked); i++ {
			e.parked[i] = nil
		}
		e.parked = e.parked[:remaining]
		stop := len(e.parked) == 0
		if stop {
			e.cleanerOn = false
		}
		e.mu.Unlock()
		for _, w := range expired {
			close(w.wake) // worker sees ok=false, drains its deque, exits
		}
		if stop {
			return
		}
	}
}

// Close retires the pool: no new workers are kept after it is called, every
// parked worker is released, and Close blocks until all pool goroutines —
// busy workers included, which finish their current job first — and the
// cleaner have exited. Jobs handed to Execute before Close still run to
// completion; Execute after Close falls back to goroutine-per-task. Close
// is idempotent and safe to call concurrently.
func (e *Elastic) Close() {
	e.mu.Lock()
	first := !e.closed
	e.closed = true
	parked := e.parked
	e.parked = nil
	e.cleanerOn = false
	all := e.all
	e.mu.Unlock()
	if first {
		close(e.stop)
	}
	for _, w := range parked {
		close(w.wake)
	}
	// Retire every deque and re-launch whatever was queued. Without this
	// sweep, a submission racing Close can land on a busy worker's deque
	// through the TryLock fast path after the closed flag is up — and if
	// that worker's job never finishes, no searcher would ever be created
	// for it (ensureSearcher refuses on a closed pool), stranding the job
	// in violation of the shutdown guarantee above. Marking the deques
	// retired also makes the race one-sided: a push lands either before
	// its worker's mark (drained here or by the worker's own exit) or
	// fails and falls through to the goroutine-per-task path.
	for _, w := range all {
		w.drainOnExit(e)
	}
	e.workers.Wait()
	e.cleaners.Wait()
}

// SchedStats is the pool's full counter set.
type SchedStats struct {
	Spawned int64 // submissions that seeded a fresh worker
	Reused  int64 // submissions absorbed by existing workers
	Thieves int64 // unseeded workers spawned to drain queued backlog
	Steals  int64 // jobs claimed from another worker's deque
	Wakes   int64 // parked-worker wakeups
	Live    int64 // current worker goroutines
	Busy    int64 // workers currently running a job
	Idle    int64 // workers currently parked
	Pending int64 // jobs queued in deques, not yet claimed
}

// SchedStats returns a snapshot of every pool counter. Every submitted
// job increments exactly one of Spawned and Reused, so Spawned+Reused is
// the submission total; Thieves counts workers the wake cascade created
// beyond those; Steals measures how much of the load was redistributed
// off the burst target. After Close, Live, Busy and Idle are zero.
func (e *Elastic) SchedStats() SchedStats {
	e.mu.Lock()
	idle := len(e.parked)
	e.mu.Unlock()
	return SchedStats{
		Spawned: e.spawned.Load(),
		Reused:  e.reused.Load(),
		Thieves: e.thieves.Load(),
		Steals:  e.steals.Load(),
		Wakes:   e.wakes.Load(),
		Live:    e.live.Load(),
		Busy:    e.busy.Load(),
		Idle:    int64(idle),
		Pending: e.pending.Load(),
	}
}
