package core

// The default executor's goroutine freelist.
//
// Starting a goroutine with arguments — `go r.runTask(t, f)` — is not
// free: the compiler materializes a hidden closure on the heap to carry
// the arguments, and the runtime may have to allocate goroutine
// machinery. In a QSort-style spawn storm that closure is a third of the
// spawn path's allocations. The spawner removes it by recycling whole
// goroutines: a task body that returns parks its goroutine on a
// per-runtime freelist, and the next spawn hands the new task (which
// carries its body) to a parked goroutine through its one-slot channel —
// a one-word copy into a preallocated buffer, no allocation at all.
//
// The §6.3 obligation (never bound the number of simultaneously blocked
// tasks) is preserved exactly as in the sched.Elastic pool: a spawn
// reuses a goroutine only if one is PARKED (idle, provably not running a
// task); otherwise it starts a fresh one. Blocked tasks keep their
// goroutine busy, so growth remains one goroutine per concurrently live
// task, with no a-priori bound.
//
// Lifecycle: parked goroutines belong to the runtime and are released by
// Run after the task tree has fully unwound (drainSpawners), so a
// completed runtime holds no goroutines. The freelist is bounded; a
// goroutine that finds it full simply exits, which keeps a burst's
// worst case at the old goroutine-per-task behaviour.

// spawnWorker is one parked goroutine's mailbox. The channel is
// buffered so the spawner never blocks handing work to a claimed worker
// (the claimer holds the only reference, so at most one request is ever
// outstanding).
//
// The worker always parks in a blocking receive — no yield-polling.
// Polling was tried and reverted: a parked worker cycling through
// Gosched sits in the run queue, so a hand-off lands on a goroutine
// that runs at queue order instead of being readied front-of-line by
// the channel send. On a saturated P that delays every child's first
// run, deepening the simultaneously-blocked chains that Algorithm 2
// traverses — measured as a >60% whole-program regression on the
// chain-heavy verified workloads (Sieve, SmithWaterman). The blocking
// receive keeps the spawn schedule equivalent to `go`'s: the child is
// next to run the moment its parent blocks.
type spawnWorker struct {
	req chan *Task
}

// spawnFreeMax bounds the parked-goroutine freelist. Past the bound a
// finishing goroutine exits instead of parking — the storm that grew the
// pool is over, and 256 parked goroutines already absorb any realistic
// steady-state spawn rate.
const spawnFreeMax = 256

// startGoroutine places t on a recycled goroutine, or starts a new one.
// Called by startTask when no custom executor is installed.
func (r *Runtime) startGoroutine(t *Task) {
	r.spawnMu.Lock()
	if n := len(r.spawnFree); n > 0 {
		w := r.spawnFree[n-1]
		r.spawnFree[n-1] = nil
		r.spawnFree = r.spawnFree[:n-1]
		r.spawnMu.Unlock()
		w.req <- t // buffered: the claimed worker drains it
		return
	}
	r.spawnMu.Unlock()
	go r.spawnLoop(t)
}

// spawnLoop is the recycled goroutine's body: run the seed task, then
// alternate parking with running handed-off tasks until retired (the
// freelist is full or the runtime drained it).
func (r *Runtime) spawnLoop(t *Task) {
	w := &spawnWorker{req: make(chan *Task, 1)}
	for {
		t.run()
		if !r.parkSpawnWorker(w) {
			return
		}
		var ok bool
		if t, ok = <-w.req; !ok {
			return // drained by Run's unwind
		}
	}
}

// parkSpawnWorker pushes w onto the freelist. Reports false when the
// worker should exit instead: the list is at its bound, or the runtime
// has already drained (the task tree unwound while this goroutine was
// between its wg.Done and the park — without the closed check it would
// park forever on a dead runtime).
func (r *Runtime) parkSpawnWorker(w *spawnWorker) bool {
	r.spawnMu.Lock()
	defer r.spawnMu.Unlock()
	if r.spawnClosed || len(r.spawnFree) >= spawnFreeMax {
		return false
	}
	r.spawnFree = append(r.spawnFree, w)
	return true
}

// drainSpawners releases every parked goroutine. Called by Run after
// wg.Wait — the program is unwound, nothing can spawn — so a finished
// runtime provably owns no goroutines. Symmetrically re-opened at Run
// entry for runtimes that are (atypically) run more than once.
func (r *Runtime) drainSpawners() {
	r.spawnMu.Lock()
	free := r.spawnFree
	r.spawnFree = nil
	r.spawnClosed = true
	r.spawnMu.Unlock()
	for _, w := range free {
		close(w.req)
	}
}
