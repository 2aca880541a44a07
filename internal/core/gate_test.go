package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateSignalBeforeWait: a gate signalled before anyone waits resolves
// every wait to the shared closed sentinel without allocating a channel.
func TestGateSignalBeforeWait(t *testing.T) {
	var g gate
	g.signal()
	if g.ch.Load() != closedGateChan {
		t.Fatal("gate not at the closed sentinel after signal")
	}
	select {
	case <-g.wait():
	default:
		t.Fatal("wait() after signal must be immediately ready")
	}
	if got := testing.AllocsPerRun(100, func() { <-g.wait() }); got != 0 {
		t.Fatalf("wait on a signalled gate allocates %v/op, want 0", got)
	}
}

// TestGateNoLostWakeup races one signaller against many waiters, over and
// over: every waiter must wake regardless of how the CAS-install and
// Swap-sentinel interleave.
func TestGateNoLostWakeup(t *testing.T) {
	for round := 0; round < 200; round++ {
		var g gate
		const waiters = 8
		var woke sync.WaitGroup
		woke.Add(waiters)
		start := make(chan struct{})
		for i := 0; i < waiters; i++ {
			go func() {
				<-start
				<-g.wait()
				woke.Done()
			}()
		}
		close(start)
		g.signal()
		done := make(chan struct{})
		go func() { woke.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: lost wakeup", round)
		}
	}
}

// TestGateSignalIdempotent: double signal must not double-close.
func TestGateSignalIdempotent(t *testing.T) {
	var g gate
	ch := g.wait()
	g.signal()
	g.signal()
	<-ch
}

// TestRequirement3Ordering is the §5.1 Requirement-3 check against the
// packed state word: once a blocked task's waitingOn reset becomes
// visible, the fulfilment that woke it must already be visible too. A
// detector-like observer polls the waiter's waitingOn edge; at the moment
// the edge disappears after having been seen, the promise must be
// fulfilled. Run with -race to also exercise the happens-before edges.
func TestRequirement3Ordering(t *testing.T) {
	const rounds = 500
	rt := NewRuntime(WithMode(Full))
	err := rt.Run(func(root *Task) error {
		for i := 0; i < rounds; i++ {
			p := NewPromise[int](root)
			waiter, err := root.Async(func(c *Task) error {
				_, err := p.Get(c)
				return err
			})
			if err != nil {
				return err
			}
			// Observe like Algorithm 2 does: waitingOn, then fulfilment.
			var sawEdge atomic.Bool
			obsDone := make(chan struct{})
			go func() {
				defer close(obsDone)
				for {
					if waiter.waitingOn.Load() == p.state() {
						sawEdge.Store(true)
					} else if sawEdge.Load() {
						// Edge was up and is now down: Requirement 3 says
						// the fulfilment must be visible here.
						if !p.state().fulfilled() {
							t.Error("waitingOn reset visible before fulfilment")
						}
						return
					}
					if p.state().fulfilled() && !sawEdge.Load() {
						return // waiter took the fast path this round
					}
				}
			}()
			if err := p.Set(root, i); err != nil {
				return err
			}
			<-obsDone
			if err := waiter.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
