package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/front"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// frontTracedPercent is how many of every hundred front-closed requests
// ask for the session's event log back with the verdict. No committed
// run of the repository sets a traced share, so the event-log path gets
// the rate of the other rare path, Listing 1.
const frontTracedPercent = deadlockPercent

// frontWarmup is the number of requests each connection runs during
// set-up.
const frontWarmup = 200

// frontKinds is the front-closed mix: tiny bodies, so the wire, the
// front's connection handling and verdict delivery are most of each
// request's time. (A Sieve body at small scale keeps both CPUs busy for
// about 30 ms; with one request in a thousand of it, throughput and p99
// swung by 20-50% between runs.)
var frontKinds = []sessionKind{
	{"noop", noopBody, serve.VerdictClean, 100 - deadlockPercent},
	{"Deadlock", listing1Body, serve.VerdictDeadlock, deadlockPercent},
}

// frontLoop is one connection's closed loop: it keeps one request in
// flight, so the registry wrapper of its bodies knows which request a
// server-side body stamp belongs to. RemoteSession's own durations
// cannot serve: they cross the wire in whole milliseconds.
type frontLoop struct {
	id     int
	c      *front.Client
	kinds  *deck
	traced *deck

	bodyStart, bodyEnd atomic.Int64 // stamped on the server side

	lat                             *latencies
	traceKB                         *sample
	log                             *spanLog
	done, deadlocks, wrong, refused int64
	msgs                            notes
}

// frontEnv is one live front with its clients.
type frontEnv struct {
	f       *front.Front
	clients []*front.Client
}

func (e *frontEnv) close() error {
	for _, c := range e.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return e.f.Shutdown(ctx)
}

// runFrontClosed drives a self-hosted front.Front over loopback: one
// connection per CPU, each its own tenant, each sending a seeded mix and
// waiting for every verdict before the next request.
func runFrontClosed(cfg config) (*report, error) {
	rep := newReport()
	clk := newClock()
	n := workers()
	kinds := frontKinds
	if cfg.inject == "verdict" {
		kinds = append([]sessionKind(nil), frontKinds...)
		kinds[0].want = serve.VerdictDeadlock
	}
	loops := make([]*frontLoop, n)
	for i := range loops {
		seed := cfg.seed*7919 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		loops[i] = &frontLoop{
			id:      i,
			kinds:   kindDeck(rng, kinds),
			traced:  newDeck(rng, 100-frontTracedPercent, frontTracedPercent),
			lat:     newLatencies(len(kinds), seed),
			traceKB: newSample(seed),
			log:     newSpanLog(maxSpans / n),
		}
	}

	base := runtime.NumGoroutine()
	env, setupS, err := timeSetup(func() (*frontEnv, error) {
		reg := make(front.Registry, n*len(kinds))
		keys := make(map[string]string, n)
		for _, l := range loops {
			for _, k := range kinds {
				body := k.body
				reg[loopName(k, l)] = func(workloads.Scale) core.TaskFunc {
					return func(t *core.Task) error {
						l.bodyStart.Store(clk.now())
						err := body(t)
						l.bodyEnd.Store(clk.now())
						return err
					}
				}
			}
			keys[fmt.Sprintf("key-%d", l.id)] = fmt.Sprintf("tenant-%d", l.id)
		}
		f, err := front.New(front.Config{
			Addr:     "127.0.0.1:0",
			Keys:     keys,
			Registry: reg,
			Serve:    []serve.Option{serve.WithMaxSessions(n), serve.WithQueueDepth(n)},
		})
		if err != nil {
			return nil, err
		}
		env := &frontEnv{f: f}
		for _, l := range loops {
			c, err := front.Dial(f.Addr(), fmt.Sprintf("key-%d", l.id))
			if err != nil {
				env.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			env.clients = append(env.clients, c)
		}
		warm := make([]*frontLoop, n)
		for i, l := range loops {
			warm[i] = &frontLoop{id: l.id, c: env.clients[i], kinds: l.kinds, traced: l.traced, lat: newLatencies(len(kinds), 0)}
		}
		runAll(warm, func(l *frontLoop) {
			for j := 0; j < frontWarmup; j++ {
				l.one(kinds, clk, false)
			}
		})
		for _, l := range warm {
			if len(l.msgs) > 0 {
				env.close()
				return nil, fmt.Errorf("warm-up request failed: %s", l.msgs[0])
			}
		}
		return env, nil
	}, func(e *frontEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", setupS)
	for i, l := range loops {
		l.c = env.clients[i]
	}

	heap := newHeapSampler(1)
	pool := env.f.Pool()
	before := snapPool(pool)
	heap.set(0)
	cpu0 := cpuSeconds()
	end := clk.now() + int64(cfg.dur)
	runAll(loops, func(l *frontLoop) {
		for clk.now() < end {
			l.one(kinds, clk, cfg.trace)
		}
	})
	cpuS := cpuSeconds() - cpu0
	heap.set(-1)
	after := snapPool(pool)
	heapMB := heap.close()
	if err := env.close(); err != nil {
		rep.problem("front shutdown: %v", err)
	}
	if leaked := settleGoroutines(base); leaked > 0 {
		rep.problem("%d goroutines leaked past Front.Shutdown", leaked)
	}

	tot := loops[0]
	logs := []*spanLog{tot.log}
	for _, l := range loops[1:] {
		tot.done += l.done
		tot.deadlocks += l.deadlocks
		tot.wrong += l.wrong
		tot.refused += l.refused
		tot.msgs = append(tot.msgs, l.msgs...)
		tot.lat.merge(l.lat)
		tot.traceKB.merge(l.traceKB)
		logs = append(logs, l.log)
	}
	rep.attempted = tot.done + tot.refused
	rep.failed = tot.wrong + tot.refused
	for _, m := range tot.msgs {
		rep.problem("%s", m)
	}
	alarms := after.pool.Deadlocks - before.pool.Deadlocks
	if alarms != tot.deadlocks {
		rep.problem("core.alarms %d, want %d (one per Deadlock request)", alarms, tot.deadlocks)
	}
	dropped := after.pool.EventsDropped - before.pool.EventsDropped
	if dropped != 0 {
		rep.problem("%d trace events dropped", dropped)
	}
	rep.setE2E("heap_mb", heapMB[0])
	rep.setE2E("throughput_per_cpu_s", float64(tot.done)/cpuS)
	tot.lat.setE2E(rep)
	if !cfg.trace {
		return rep, nil
	}
	// The front's overhead is the request's self time: its round trip
	// less the body the server ran.
	var submit, overhead, deliver []float64
	eachRequest(logs, func(r request) {
		req, b := r.get(spanRequest), r.get(spanBody)
		submit = append(submit, us(r.get(spanClientSubmit).dur()))
		overhead = append(overhead, us(selfTime(req, []span{b})))
		deliver = append(deliver, us(time.Duration(req.end-b.end)))
	})
	for name, xs := range map[string][]float64{
		"front.submit_us": submit, "front.overhead_us": overhead, "front.deliver_us": deliver,
	} {
		rep.setLayer(name+".p50", quantile(xs, 0.5))
		rep.setLayer(name+".p99", quantile(xs, 0.99))
	}
	rep.setLayer("front.rejects", float64(tot.refused))
	rep.setLayer("trace.kb_per_session.p50", quantile(tot.traceKB.xs, 0.5))
	rep.setLayer("trace.events_dropped", float64(dropped))
	rep.setLayer("core.alarms", float64(alarms))
	rep.setLayer("failed_frac", float64(rep.failed)/float64(rep.attempted))
	rep.setSched(before, after)
	path, err := writeSpans(cfg.spanDir, cfg.workload, logs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "spans: %s\n", path)
	return rep, nil
}

// loopName is the registry name of kind k's body for loop l.
func loopName(k sessionKind, l *frontLoop) string { return fmt.Sprintf("%s@%d", k.name, l.id) }

// one sends one request of a seeded kind, waits for its verdict, and
// checks it. With traced set it records the request's spans.
func (l *frontLoop) one(kinds []sessionKind, clk clock, traced bool) {
	k := l.kinds.draw()
	kind := kinds[k]
	wantTrace := l.traced.draw() == 1
	t0 := clk.now()
	rs, err := l.c.Submit(context.Background(), front.SubmitRequest{Workload: loopName(kind, l), Scale: "small", Trace: wantTrace})
	t1 := clk.now()
	if err != nil {
		l.refused++
		l.lat.fail()
		l.msgs.add("%s: refused: %v", kind.name, err)
		return
	}
	<-rs.Done()
	t2 := clk.now()
	l.done++
	if kind.want == serve.VerdictDeadlock {
		l.deadlocks++
	}
	if v := rs.Verdict(); v != kind.want {
		l.wrong++
		l.lat.fail()
		l.msgs.add("%s: verdict %s, want %s (err: %v)", kind.name, v, kind.want, rs.Err())
		return
	}
	tr := rs.Trace()
	if wantTrace && len(tr) == 0 {
		l.wrong++
		l.lat.fail()
		l.msgs.add("%s: traced session returned no event log", kind.name)
		return
	}
	l.lat.ok(k, time.Duration(t2-t0))
	if !traced {
		return
	}
	if wantTrace {
		l.traceKB.add(float64(len(tr)) / 1024)
	}
	if l.log.room(4) {
		req := uint32(l.done)<<8 | uint32(l.id)
		l.log.add(req, spanRequest, spanNone, t0, t2)
		l.log.add(req, spanClientSubmit, spanRequest, t0, t1)
		l.log.add(req, spanRemoteDone, spanRequest, t1, t2)
		l.log.add(req, spanBody, spanRemoteDone, l.bodyStart.Load(), l.bodyEnd.Load())
	}
}
