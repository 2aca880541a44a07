package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// poolKinds is the pool-closed mix: tiny bodies, so the per-session cost
// of admission, runtime build and verdict dominates. Listing 1 takes
// deadlockPercent of the sessions; the two clean bodies split the rest
// evenly.
var poolKinds = []sessionKind{
	{"noop", noopBody, serve.VerdictClean, 100 - deadlockPercent},
	{"fan8", fanBody, serve.VerdictClean, 100 - deadlockPercent},
	{"listing1", listing1Body, serve.VerdictDeadlock, 2 * deadlockPercent},
}

// poolWarmup is the number of sessions each caller runs during set-up,
// so the measured phase starts with warm scheduler workers and caches.
const poolWarmup = 500

// poolCaller is one closed-loop submitter: it owns its random stream,
// its samples and its spans, so callers share nothing while measuring.
type poolCaller struct {
	id       int
	kinds    *deck
	lat      *latencies
	log      *spanLog
	next     uint32
	sessions int64
	wrong    int64
	refused  int64
	alarms   int64 // listing1 sessions submitted
	msgs     notes
}

// stamps is one traced session's body interval, written by the wrapped
// body on a pool worker and read by the caller after Wait.
type stamps struct{ start, end int64 }

// runPoolClosed drives a serve.Pool closed-loop: one caller per CPU,
// each submitting a seeded mix of tiny sessions and waiting for each
// verdict before the next, on a pool with one session slot per caller.
func runPoolClosed(cfg config) (*report, error) {
	rep := newReport()
	kinds := poolKinds
	if cfg.inject == "verdict" {
		kinds = append([]sessionKind(nil), poolKinds...)
		kinds[0].want = serve.VerdictDeadlock
	}
	n := workers()
	base := runtime.NumGoroutine()
	clk := newClock()
	pool, setupS, err := timeSetup(func() (*serve.Pool, error) {
		p := serve.New(serve.WithMaxSessions(n), serve.WithQueueDepth(n))
		callers := make([]*poolCaller, n)
		for i := range callers {
			callers[i] = newPoolCaller(i, cfg.seed*7919+int64(i)+1<<40, kinds, n)
		}
		runAll(callers, func(c *poolCaller) {
			for j := 0; j < poolWarmup; j++ {
				c.one(p, kinds, clk, false)
			}
		})
		for _, c := range callers {
			if len(c.msgs) > 0 {
				p.Close()
				return nil, fmt.Errorf("warm-up session failed: %s", c.msgs[0])
			}
		}
		return p, nil
	}, func(p *serve.Pool) { p.Close() })
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", setupS)

	callers := make([]*poolCaller, n)
	for i := range callers {
		callers[i] = newPoolCaller(i, cfg.seed*7919+int64(i), kinds, n)
	}
	heap := newHeapSampler(1)
	before := snapPool(pool)
	heap.set(0)
	cpu0 := cpuSeconds()
	end := clk.now() + int64(cfg.dur)
	runAll(callers, func(c *poolCaller) {
		for clk.now() < end {
			c.one(pool, kinds, clk, cfg.trace)
		}
	})
	cpuS := cpuSeconds() - cpu0
	heap.set(-1)
	after := snapPool(pool)
	heapMB := heap.close()
	pool.Close()
	if leaked := settleGoroutines(base); leaked > 0 {
		rep.problem("%d goroutines leaked past Pool.Close", leaked)
	}

	lat := newLatencies(len(kinds), 0)
	var sessions, refused, alarms int64
	logs := make([]*spanLog, n)
	for i, c := range callers {
		lat.merge(c.lat)
		sessions += c.sessions
		refused += c.refused
		alarms += c.alarms
		rep.failed += c.wrong + c.refused
		for _, m := range c.msgs {
			rep.problem("%s", m)
		}
		logs[i] = c.log
	}
	rep.attempted = sessions + refused
	got := after.pool.Deadlocks - before.pool.Deadlocks
	if got != alarms {
		rep.problem("core.alarms %d, want %d (one per Listing-1 session)", got, alarms)
	}
	rep.setE2E("heap_mb", heapMB[0])
	rep.setE2E("throughput_per_cpu_s", float64(sessions)/cpuS)
	lat.setE2E(rep)
	if !cfg.trace {
		return rep, nil
	}

	// Session.Wait's self time, less the queue wait, is two gaps: from
	// the end of the queue wait to the body's start (runtime build and
	// dispatch) and from the body's end to Wait's return (unwind,
	// classification, slot release).
	var admit, queue, st, body, verdict []float64
	eachRequest(logs, func(r request) {
		sub, wait, q, b := r.get(spanPoolSubmit), r.get(spanSessionWait), r.get(spanQueue), r.get(spanBody)
		admit = append(admit, us(sub.dur()))
		queue = append(queue, us(q.dur()))
		st = append(st, us(time.Duration(b.start-q.end)))
		body = append(body, us(b.dur()))
		verdict = append(verdict, us(time.Duration(wait.end-b.end)))
	})
	for name, xs := range map[string][]float64{
		"serve.admit_us": admit, "serve.queue_us": queue, "serve.start_us": st,
		"serve.body_us": body, "serve.verdict_us": verdict,
	} {
		rep.setLayer(name+".p50", quantile(xs, 0.5))
		rep.setLayer(name+".p99", quantile(xs, 0.99))
	}
	rep.setLayer("serve.rejected_frac", float64(refused)/float64(rep.attempted))
	rep.setLayer("serve.alloc_kb_per_session", (after.alloc-before.alloc)/float64(max(sessions, 1))/1024)
	rep.setLayer("core.alarms", float64(got))
	rep.setLayer("failed_frac", float64(rep.failed)/float64(rep.attempted))
	rep.setSched(before, after)
	path, err := writeSpans(cfg.spanDir, cfg.workload, logs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "spans: %s\n", path)
	return rep, nil
}

func newPoolCaller(id int, seed int64, kinds []sessionKind, callers int) *poolCaller {
	return &poolCaller{
		id:    id,
		kinds: kindDeck(rand.New(rand.NewSource(seed)), kinds),
		lat:   newLatencies(len(kinds), seed),
		log:   newSpanLog(maxSpans / callers),
	}
}

// one submits one session of a seeded kind, waits for its verdict, and
// checks it. With traced set it records the session's spans.
func (c *poolCaller) one(p *serve.Pool, kinds []sessionKind, clk clock, traced bool) {
	k := c.kinds.draw()
	kind := kinds[k]
	body := kind.body
	var st stamps
	if traced {
		inner := body
		body = func(t *core.Task) error {
			st.start = clk.now()
			err := inner(t)
			st.end = clk.now()
			return err
		}
	}
	t0 := clk.now()
	s, err := p.Submit(context.Background(), kind.name, body)
	t1 := clk.now()
	if err != nil {
		c.refused++
		c.lat.fail()
		c.msgs.add("%s: refused: %v", kind.name, err)
		return
	}
	s.Wait()
	t2 := clk.now()
	c.sessions++
	if kind.want == serve.VerdictDeadlock {
		c.alarms++
	}
	if v := s.Verdict(); v != kind.want {
		c.wrong++
		c.lat.fail()
		c.msgs.add("%s: verdict %s, want %s (err: %v)", kind.name, v, kind.want, s.Err())
		return
	}
	c.lat.ok(k, time.Duration(t2-t0))
	if !traced || !c.log.room(5) {
		return
	}
	c.next++
	req := c.next<<8 | uint32(c.id) // unique across callers
	c.log.add(req, spanRequest, spanNone, t0, t2)
	c.log.add(req, spanPoolSubmit, spanRequest, t0, t1)
	c.log.add(req, spanSessionWait, spanRequest, t1, t2)
	c.log.add(req, spanQueue, spanSessionWait, t1, t1+int64(s.QueueLatency()))
	c.log.add(req, spanBody, spanSessionWait, st.start, st.end)
}
