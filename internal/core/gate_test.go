package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateSignalBeforeWait: a gate signalled before anyone waits resolves
// every wait to the shared closed channel without allocating, and refuses
// to link a waiter record.
func TestGateSignalBeforeWait(t *testing.T) {
	var g gate
	g.signal()
	if !g.signalled() {
		t.Fatal("gate not at the signalled sentinel after signal")
	}
	if g.push(&waiter{ch: make(chan struct{}, 1)}) {
		t.Fatal("push linked a record behind the signalled sentinel")
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
// over: every waiter must wake regardless of how the CAS-push and
// Swap-sentinel interleave. Half the waiters park a task-style record
// (one token), half a broadcast record (closed channel).
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
				if i%2 == 0 {
					<-g.wait()
				} else if w := (&waiter{ch: make(chan struct{}, 1)}); g.push(w) {
					<-w.ch
				}
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

// linked counts the records on g's stack; 0 once signalled.
func linked(g *gate) int {
	n := 0
	for w := g.head.Load(); w != nil && w != gateSignalled; w = w.next {
		n++
	}
	return n
}

// TestParkMultiWaiter: K blocked tasks and one Done channel wait on the
// same promise, and a single Set wakes every one of them.
func TestParkMultiWaiter(t *testing.T) {
	const k = 6
	for _, mode := range []Mode{Unverified, Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(root *Task) error {
				p := NewPromise[int](root)
				done := p.Done()
				var kids []*Task
				for i := 0; i < k; i++ {
					c, err := root.Async(func(c *Task) error {
						v, err := p.Get(c)
						if err == nil && v != 42 {
							err = fmt.Errorf("woke with %d before the Set", v)
						}
						return err
					})
					if err != nil {
						return err
					}
					kids = append(kids, c)
				}
				for linked(&p.s.wake) < k+1 {
					runtime.Gosched()
				}
				if err := p.Set(root, 42); err != nil {
					return err
				}
				<-done
				for _, c := range kids {
					if err := c.Wait(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParkCancelThenReuse: a task whose wait on p is cancelled while its
// record is linked in p's gate parks again on q and r. The Set of q wakes
// it; the later Set of p, which still reaches the abandoned record, must
// neither wake it from r (it parks a fresh record there) nor panic.
func TestParkCancelThenReuse(t *testing.T) {
	for _, mode := range []Mode{Unverified, Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(root *Task) error {
				p := NewPromiseNamed[int](root, "p")
				q := NewPromiseNamed[int](root, "q")
				r := NewPromiseNamed[int](root, "r")
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				c, err := root.Async(func(c *Task) error {
					var ce *CanceledError
					if _, err := p.GetContext(ctx, c); !errors.As(err, &ce) {
						return fmt.Errorf("wait on p: got %v, want a CanceledError", err)
					}
					if v, err := q.Get(c); err != nil || v != 7 {
						return fmt.Errorf("wait on q: got %d, %v", v, err)
					}
					if v, err := r.Get(c); err != nil || v != 9 {
						return fmt.Errorf("wait on r: got %d, %v", v, err)
					}
					return nil
				})
				if err != nil {
					return err
				}
				waitLinked := func(s *pstate) {
					for s.wake.head.Load() == nil {
						runtime.Gosched()
					}
				}
				waitLinked(&p.s)
				cancel()
				waitLinked(&q.s)
				if err := q.Set(root, 7); err != nil {
					return err
				}
				waitLinked(&r.s)
				// The record parked on r must not be the one still linked
				// in p, or p's Set would end the wait on r.
				var stale error
				parked := r.s.wake.head.Load()
				for w := p.s.wake.head.Load(); w != nil; w = w.next {
					if w == parked {
						stale = errors.New("the record parked on r is still linked in p")
					}
				}
				if err := p.Set(root, 1); err != nil {
					return err
				}
				if err := r.Set(root, 9); err != nil {
					return err
				}
				return errors.Join(stale, c.Wait())
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParkReblockAllocs: once a task has blocked, blocking and waking
// again costs no allocation — it re-links the same waiter record. The
// child sets each promise only after the parent's record is linked in
// its gate, so every measured Get really parks.
func TestParkReblockAllocs(t *testing.T) {
	const runs = 200
	for _, mode := range []Mode{Unverified, Full} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime(WithMode(mode))
			err := run(t, rt, func(root *Task) error {
				// One promise for a first, unmeasured block, one for the
				// warm-up call AllocsPerRun makes, one per measured run.
				ps := make([]*Promise[int], runs+2)
				moved := make([]Movable, len(ps))
				for i := range ps {
					ps[i] = NewPromise[int](root)
					moved[i] = ps[i]
				}
				child, err := root.Async(func(c *Task) error {
					for i, p := range ps {
						for p.s.wake.head.Load() == nil {
							runtime.Gosched()
						}
						if err := p.Set(c, i); err != nil {
							return err
						}
					}
					return nil
				}, moved...)
				if err != nil {
					return err
				}
				next := 0
				get := func() {
					if v, err := ps[next].Get(root); err != nil || v != next {
						t.Errorf("get %d: got %d, %v", next, v, err)
					}
					next++
				}
				get()
				if root.park == nil {
					return errors.New("first block left no waiter record")
				}
				if got := testing.AllocsPerRun(runs, get); got != 0 {
					t.Errorf("re-block allocates %v/op, want 0", got)
				}
				return child.Wait()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
