package core

// Integration of the runtime with alternative executors: the detector and
// the ownership policy must be oblivious to how task bodies are mapped to
// goroutines, as long as the executor never bounds the number of
// simultaneously blocked tasks (§6.3).

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// miniPool is a grow-on-demand pool local to this test (the real one
// lives in internal/sched; core cannot import it without a cycle in the
// test graph, and a second tiny implementation also exercises the
// WithExecutor seam independently).
type miniPool struct {
	jobs    chan Job
	spawned atomic.Int64
}

func newMiniPool() *miniPool { return &miniPool{jobs: make(chan Job)} }

func (p *miniPool) execute(j Job) {
	select {
	case p.jobs <- j:
	default:
		p.spawned.Add(1)
		go func() {
			for {
				j.Run()
				var ok bool
				select {
				case j, ok = <-p.jobs:
					if !ok {
						return
					}
				default:
					return
				}
			}
		}()
	}
}

// funcExecutor adapts a per-job func to Executor; ExecuteBatch hands it
// each job in order.
type funcExecutor func(Job)

func (f funcExecutor) Execute(j Job) { f(j) }

func (f funcExecutor) ExecuteBatch(js []Job) {
	for _, j := range js {
		f(j)
	}
}

func TestDetectorUnderPooledExecutor(t *testing.T) {
	pool := newMiniPool()
	rt := NewRuntime(WithMode(Full), WithExecutor(funcExecutor(pool.execute)))
	err := run(t, rt, func(root *Task) error {
		p := NewPromiseNamed[int](root, "p")
		q := NewPromiseNamed[int](root, "q")
		if _, e := root.Async(func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 1)
		}, q); e != nil {
			return e
		}
		_, e := q.Get(root)
		return e
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("deadlock missed under pooled executor: %v", err)
	}
}

func TestWorkloadUnderPooledExecutor(t *testing.T) {
	pool := newMiniPool()
	rt := NewRuntime(WithMode(Full), WithExecutor(funcExecutor(pool.execute)))
	err := run(t, rt, func(root *Task) error {
		// A fan-out/fan-in with promise movement through the pool.
		const n = 64
		ps := make([]*Promise[int], n)
		for i := range ps {
			ps[i] = NewPromise[int](root)
		}
		for i := 0; i < n; i++ {
			i := i
			if _, e := root.Async(func(c *Task) error {
				return ps[i].Set(c, i)
			}, ps[i]); e != nil {
				return e
			}
		}
		sum := 0
		for _, p := range ps {
			v, e := p.Get(root)
			if e != nil {
				return e
			}
			sum += v
		}
		if sum != n*(n-1)/2 {
			return fmt.Errorf("sum = %d", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOmittedSetUnderPooledExecutor(t *testing.T) {
	pool := newMiniPool()
	rt := NewRuntime(WithMode(Ownership), WithExecutor(funcExecutor(pool.execute)))
	err := run(t, rt, func(root *Task) error {
		p := NewPromiseNamed[int](root, "leak")
		if _, e := root.AsyncNamed("leaky", func(c *Task) error { return nil }, p); e != nil {
			return e
		}
		_, e := p.Get(root)
		var bp *BrokenPromiseError
		if !errors.As(e, &bp) {
			return fmt.Errorf("get = %v", e)
		}
		return nil
	})
	var om *OmittedSetError
	if !errors.As(err, &om) {
		t.Fatalf("omitted set missed under pooled executor: %v", err)
	}
}
