package core

import "sync"

// globalDetector is the DetectGlobalLock ablation: Algorithm 2's own
// traversal (verifyAwait) run under one mutex, in the style of
// centralized deadlock tools for barriers and locks (the paper cites
// Armus, with overheads up to 1.5x, as the prior-art comparison point).
// Every blocking Get serializes through the mutex both when it starts
// waiting and when it stops, which is exactly the serialization
// bottleneck the lock-free detector avoids. The edge, the walk and the
// cycle report are the lock-free detector's, so the lock is the only
// difference the benchmark suite measures.
type globalDetector struct {
	mu sync.Mutex
}

// beforeWait publishes the edge t -> s and checks for a cycle through it,
// exactly as verifyAwait does, with the mutex held.
func (g *globalDetector) beforeWait(t *Task, s *pstate) error {
	// Re-check fulfilment before queueing on the global mutex: the promise
	// may have been set between the caller's fast path and here, and a
	// single atomic load is far cheaper than a contended lock acquisition.
	if s.fulfilled() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return t.verifyAwait(s)
}

// afterWait withdraws t's edge once its wait has ended.
func (g *globalDetector) afterWait(t *Task) {
	g.mu.Lock()
	t.waitingOn.Store(nil)
	g.mu.Unlock()
}
