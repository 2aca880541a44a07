package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSessionStamps: a session's timings come from its three monotonic
// stamps (queued, started, finished). Over N mixed sessions — no-op,
// fan-out, Listing 1 — submitted by concurrent callers to a pool small
// enough that most of them queue, every QueueLatency and Duration is
// non-negative, their sum fits inside the caller's own Submit→Wait
// interval on the same monotonic clock, and both Pool.Observe windows
// count exactly the N sessions.
func TestSessionStamps(t *testing.T) {
	const callers, perCaller = 4, 24
	const n = callers * perCaller
	pool := New(WithMaxSessions(2), WithQueueDepth(n))
	defer pool.Close()

	bodies := []core.TaskFunc{func(*core.Task) error { return nil }, cleanProg, deadlockProg}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				t0 := time.Now()
				s, err := pool.Submit(t.Context(), "stamps", bodies[(c+i)%len(bodies)])
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				s.Wait()
				caller := time.Since(t0)
				q, d := s.QueueLatency(), s.Duration()
				if q < 0 || d < 0 {
					t.Errorf("session %d: queue latency %v, duration %v; want both >= 0", s.ID(), q, d)
				}
				if q+d > caller {
					t.Errorf("session %d: queue latency %v + duration %v exceeds the caller's Submit→Wait %v",
						s.ID(), q, d, caller)
				}
			}
		}()
	}
	wg.Wait()

	ob := pool.Observe()
	if ob.QueueWait.Count != n || ob.Exec.Count != n {
		t.Fatalf("Observe windows counted %d queue waits and %d executions, want %d each",
			ob.QueueWait.Count, ob.Exec.Count, n)
	}
}
