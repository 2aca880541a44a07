package core

import "sync"

// globalDetector is the DetectGlobalLock ablation: a classical waits-for
// graph guarded by one mutex, in the style of centralized deadlock tools
// for barriers and locks (the paper cites Armus, with overheads up to
// 1.5x, as the prior-art comparison point). Every blocking Get serializes
// through the mutex both when it starts waiting and when it stops, which
// is exactly the serialization bottleneck the paper's lock-free Algorithm
// 2 avoids. The benchmark suite quantifies the difference.
//
// It lives in the Runtime by value and makes its map on the first wait,
// so a runtime that never blocks allocates nothing for it.
type globalDetector struct {
	mu      sync.Mutex
	waiting map[*Task]*pstate
}

// beforeWait registers the edge t -> s and checks the graph for a cycle
// through it. It returns a DeadlockError if one exists, leaving t
// unregistered in that case.
func (g *globalDetector) beforeWait(t *Task, s *pstate) error {
	// Re-check fulfilment before queueing on the global mutex: the promise
	// may have been set between the caller's fast path and here, and a
	// single atomic load is far cheaper than a contended lock acquisition.
	if s.fulfilled() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting == nil {
		g.waiting = make(map[*Task]*pstate)
	}
	g.waiting[t] = s
	// The cycle check below walks the locked map, but Task.waitingOn is
	// the edge the rest of core reads (TestRequirement3Ordering polls it
	// under DEADLOCK_DETECTOR=globallock, and the wrong-handle check of
	// ROADMAP item 3 will refuse a handle whose edge is set); publish the
	// edge there too so those readers see the same picture under either
	// detector.
	t.waitingOn.Store(s)
	cur := s
	for {
		owner := cur.owner.Load()
		if owner == nil {
			return nil // fulfilled or moving: progress
		}
		if owner == t {
			delete(g.waiting, t)
			t.waitingOn.Store(nil)
			return t.buildCycleLocked(s, g)
		}
		next, ok := g.waiting[owner]
		if !ok {
			return nil // owner is runnable: progress
		}
		cur = next
	}
}

// afterWait removes t's edge once its wait has been satisfied.
func (g *globalDetector) afterWait(t *Task) {
	g.mu.Lock()
	delete(g.waiting, t)
	g.mu.Unlock()
	t.waitingOn.Store(nil)
}

// buildCycleLocked reconstructs the cycle using the waiting map (the
// caller holds the mutex, so the map is stable).
func (t0 *Task) buildCycleLocked(p0 *pstate, g *globalDetector) *DeadlockError {
	const maxNodes = 1 << 20
	cyc := []CycleNode{cycleNode(t0, p0)}
	t := p0.owner.Load()
	for t != nil && t != t0 && len(cyc) < maxNodes {
		p, ok := g.waiting[t]
		if !ok {
			break
		}
		cyc = append(cyc, cycleNode(t, p))
		t = p.owner.Load()
	}
	return &DeadlockError{Cycle: cyc}
}
