// Package serve is the multi-session serving layer: it runs many
// concurrent, mutually isolated promise programs ("sessions") over one
// shared elastic scheduler, with admission control in front and
// per-session verdicts behind.
//
// The paper's runtime verifies one program; a server verifies thousands at
// once. The Pool owns a single sched.Elastic, and every admitted session
// is one job on it — the Session itself is the job, so submitting it
// allocates nothing. The job builds the session's core.Runtime and calls
// RunContext, so the root task runs on that worker (as the paper's Init
// runs the root on the thread that starts the program), while the tasks
// it spawns reach the same Elastic through the executor seam
// (core.WithExecutor), each task its own job. No goroutine is started
// per session, and nothing wraps a session's tasks: the session's runtime
// counts them itself (Session.SchedStats). Isolation is preserved because everything the
// detector and the ownership policy touch — task registries, promise
// owners, error lists, event collectors — lives in the per-session
// Runtime; the scheduler only donates goroutines. A session job blocked in
// a Get or in RunContext's final wait is one more blocked job, for which
// the Elastic grows a worker, so the paper's §6.3 unbounded-growth
// requirement holds globally and one session's blocked tasks can never
// starve another's.
//
// Admission is two-stage and QoS-aware: at most MaxSessions sessions run
// concurrently; behind them, waiting sessions queue PER FAIRNESS TENANT
// (at most QueueDepth each), and freed slots are granted across the
// tenant queues in weighted deficit round-robin order (sched.FairQueue),
// so a backlogged heavy tenant cannot starve a light one. A queued
// session is only a queue entry and holds no goroutine. Anything beyond a
// tenant's queue bound is rejected synchronously with ErrPoolSaturated —
// the caller, not the pool, owns retry policy. With deadline-aware
// admission enabled, a Submit whose ctx deadline cannot be met from the
// pool's own observed latency windows (Pool.Observe) is rejected with
// ErrDeadlineInfeasible instead of being queued to fail.
//
// Every Submit carries a context covering the whole session: a queued
// session whose ctx ends leaves the queue without running (the ctx is
// watched with context.AfterFunc), and a running session is cancelled
// through the runtime's structured-cancellation scope; either way it
// completes with VerdictCanceled. Close stops admission, fails every
// still-queued session with ErrPoolClosed, waits for the running session
// jobs, then closes the shared scheduler, which blocks until every worker
// and the cleaner goroutine have exited. After Close returns the pool has
// provably released every goroutine it created (the race tests assert
// this against runtime.NumGoroutine).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ErrPoolSaturated is returned by Submit when MaxSessions sessions are
// running and the submitting tenant's wait queue is full.
var ErrPoolSaturated = errors.New("serve: pool saturated")

// ErrPoolClosed is returned by Submit after Close has been called.
var ErrPoolClosed = errors.New("serve: pool closed")

// DefaultTenant is the fairness tenant of sessions submitted without an
// explicit WithTenant.
const DefaultTenant = "default"

// Config is the resolved form of the pool-scope options (see Option for
// the functional surface; New and NewPool build identical pools). The
// zero value is usable: 8 concurrent sessions, no queue, default
// scheduler idle timeout, Full verification, one "default" tenant.
type Config struct {
	// MaxSessions is the number of sessions allowed to run concurrently.
	// <= 0 selects 8.
	MaxSessions int
	// QueueDepth is how many admitted-but-waiting sessions may be parked
	// PER FAIRNESS TENANT behind the running ones before Submit starts
	// rejecting that tenant. 0 means queue nothing: saturate-and-reject.
	// The bound is per tenant so one backlogged tenant cannot fill the
	// waiting room and deny the others admission.
	QueueDepth int
	// IdleTimeout is the shared scheduler's worker idle timeout
	// (sched.NewElastic); zero selects that constructor's default.
	IdleTimeout time.Duration
	// Runtime is the base option set applied to every session's runtime,
	// before per-Submit options. The pool always appends its own executor
	// injection last, so a WithExecutor here or at Submit is overridden —
	// sessions run on the shared pool by construction.
	Runtime []core.Option
	// TenantWeights are the WDRR weights of the fairness tenants (see
	// WithTenantWeight). Tenants absent from the map weigh 1.
	TenantWeights map[string]int
	// DeadlineAdmission enables deadline-aware admission control (see
	// WithDeadlineAdmission); per-Submit options override it.
	DeadlineAdmission bool
	// DefaultTenant is the fairness tenant of sessions submitted without
	// WithTenant; empty selects "default".
	DefaultTenant string
	// Chaos, when non-nil, injects admission faults: each Submit may be
	// forced into an ErrPoolSaturated rejection at the injector's
	// PoolSaturate rate, exercising callers' saturation-retry paths
	// without actually filling the pool. Nil in production.
	Chaos *chaos.Injector
}

// Pool runs sessions. Create with New (options) or NewPool (resolved
// Config), submit with Submit, shut down with Close.
type Pool struct {
	cfg  Config
	exec *sched.Elastic

	// runtimeOpts is cfg.Runtime followed by the executor injection,
	// built once: every session without submit-scope runtime options
	// shares it (see runtimeOptions).
	runtimeOpts []core.Option

	mu           sync.Mutex
	closed       bool
	running      int                        // sessions holding a slot
	fq           *sched.FairQueue[*Session] // per-tenant FIFOs, WDRR dispatch
	queued       int                        // live queued sessions, all tenants
	tenantQueued map[string]int             // live queued per tenant (saturation bound)
	drain        sync.WaitGroup

	nextID           atomic.Uint64
	submitted        atomic.Int64
	rejected         atomic.Int64
	rejectedDeadline atomic.Int64
	completed        atomic.Int64
	inflight         atomic.Int64
	peak             atomic.Int64

	verdicts [verdictCount]atomic.Int64
	tasksRun atomic.Int64
	dropped  atomic.Int64

	// Windowed latency recorders behind Pool.Observe: queue wait
	// (admission latency) and execution time of recently completed
	// sessions. Always present — Observe works with no registry
	// installed — but when one IS installed at NewPool time the windows
	// are the registry's named recorders, so the scrape endpoint and
	// Observe read the same buckets. Deadline-aware admission consumes
	// the same windows: reject iff remaining < queueWait.p99 + exec.p99.
	queueWait *obs.Window
	execLat   *obs.Window
}

// NewPool creates a serving pool with its own shared scheduler from a
// resolved Config. New(opts...) is the functional-options form of the
// same constructor.
func NewPool(cfg Config) *Pool {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = DefaultTenant
	}
	p := &Pool{
		cfg:          cfg,
		exec:         sched.NewElastic(cfg.IdleTimeout),
		fq:           sched.NewFairQueue[*Session](),
		tenantQueued: make(map[string]int),
	}
	p.runtimeOpts = append(append(make([]core.Option, 0, len(cfg.Runtime)+1), cfg.Runtime...),
		core.WithExecutor(p.exec))
	for tenant, w := range cfg.TenantWeights {
		p.fq.SetWeight(tenant, w)
	}
	if reg := obs.Installed(); reg != nil {
		// Geometry args are only honored by the first creator; a second
		// pool shares the registered recorders.
		p.queueWait = reg.Window("serve_queue_wait_seconds", 0, 0)
		p.execLat = reg.Window("serve_exec_latency_seconds", 0, 0)
	} else {
		p.queueWait = obs.NewWindow(0, 0)
		p.execLat = obs.NewWindow(0, 0)
	}
	return p
}

// Submit starts (or queues) one session running main and returns its
// handle immediately. ctx is the session's cancellation scope and covers
// its whole life: a session still waiting in the admission queue when ctx
// ends aborts without ever running, and a running session is cancelled
// through core.Runtime.RunContext (structured cancellation: its blocked
// waits abort, the task tree unwinds cooperatively). Either way the
// session completes with VerdictCanceled. A nil ctx means no caller-side
// cancellation (context.Background).
//
// opts are submit-scope serving options: WithRuntime appends core
// options after the pool's base list (so a per-session option wins),
// WithTenant picks the fairness tenant (queueing, WDRR weight, metrics
// label), WithDeadlineAdmission overrides the pool's admission-check
// default for this session, and WithOnDone registers a hook that runs
// once the session has completed, however it completed. Submit never
// blocks on session execution: if a slot is free and no one is waiting,
// the session's job goes to the scheduler right away; if its tenant's
// queue has room it waits there for a WDRR admission grant; otherwise
// Submit fails fast — ErrPoolSaturated on a full tenant queue,
// ErrDeadlineInfeasible when admission control computes the ctx deadline
// cannot be met.
func (p *Pool) Submit(ctx context.Context, name string, main core.TaskFunc, opts ...Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := resolve(opts)
	if ctx.Err() != nil {
		// Dead on arrival: fail synchronously, like a closed pool.
		p.reject(rejectDeadCtx)
		return nil, context.Cause(ctx)
	}
	admission := p.cfg.DeadlineAdmission
	if o.admission != nil {
		admission = *o.admission
	}
	if admission {
		if err := p.admissible(ctx); err != nil {
			p.reject(rejectDeadline)
			p.rejectedDeadline.Add(1)
			return nil, err
		}
	}
	tenant := o.tenant
	if tenant == "" {
		tenant = p.cfg.DefaultTenant
	}

	id := p.nextID.Add(1)
	if name == "" {
		name = fmt.Sprintf("session-%d", id)
	}
	s := &Session{
		pool:        p,
		id:          id,
		name:        name,
		tenant:      tenant,
		tlabel:      boundTenantLabel(tenant),
		ctx:         ctx,
		main:        main,
		runtimeOpts: p.runtimeOptions(o.runtime),
		queuedAt:    time.Now(),
		done:        make(chan struct{}),
		onDone:      o.onDone,
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.reject(rejectClosed)
		return nil, ErrPoolClosed
	}
	if p.cfg.Chaos.Fire(chaos.PoolSaturate) {
		p.mu.Unlock()
		p.reject(rejectSaturated)
		return nil, fmt.Errorf("%w: injected: %w", ErrPoolSaturated, chaos.ErrInjected)
	}
	runNow := p.running < p.cfg.MaxSessions && p.queued == 0
	switch {
	case runNow:
		p.running++ // slot free, nobody waiting: run immediately
	case p.tenantQueued[tenant] < p.cfg.QueueDepth:
		s.waiting = true
		p.fq.Push(tenant, s)
		p.queued++
		p.tenantQueued[tenant]++
		if ctx.Done() != nil {
			// The watch runs on its own goroutine and takes p.mu, so it
			// cannot act before this Submit has finished its accounting.
			s.unwatch = context.AfterFunc(ctx, func() { p.abortQueued(s) })
		}
	default:
		p.mu.Unlock()
		p.reject(rejectSaturated)
		return nil, ErrPoolSaturated
	}
	p.drain.Add(1)
	p.submitted.Add(1)
	p.mu.Unlock()

	if m := pmet(); m != nil {
		m.submitted.Inc()
	}
	if runNow {
		p.start(s)
	}
	return s, nil
}

// rejection reasons, for the serve_sessions_rejected_total{reason} family.
const (
	rejectSaturated = "saturated"
	rejectDeadline  = "deadline"
	rejectClosed    = "closed"
	rejectDeadCtx   = "dead_ctx"
)

// reject accounts a synchronous Submit rejection.
func (p *Pool) reject(reason string) {
	p.rejected.Add(1)
	if m := pmet(); m != nil {
		m.rejected.Inc()
		m.rejectedReason.With(reason).Inc()
	}
}

// runtimeOptions is a session's runtime option list: the pool's base,
// then the submit-scope options, then the executor injection, always
// last. A session with no submit-scope options shares the pool's list.
func (p *Pool) runtimeOptions(extra []core.Option) []core.Option {
	if len(extra) == 0 {
		return p.runtimeOpts
	}
	n := len(p.cfg.Runtime)
	out := make([]core.Option, 0, len(p.runtimeOpts)+len(extra))
	out = append(append(out, p.runtimeOpts[:n]...), extra...)
	return append(out, p.runtimeOpts[n:]...)
}

// start hands a session holding a slot to the shared scheduler as one
// job. Never called with p.mu held: Execute may start a worker.
func (p *Pool) start(s *Session) {
	p.exec.Execute((*sessionJob)(s))
}

// sessionJob is a Session as the scheduler sees it: its Run runs the
// session. A distinct type keeps Run off Session's exported method set,
// and the pointer conversion costs nothing.
type sessionJob Session

func (j *sessionJob) Run() {
	s := (*Session)(j)
	s.pool.runSession(s)
}

// dispatchLocked grants freed slots to waiting sessions in WDRR order and
// returns them for the caller to start once it has released p.mu. Caller
// holds p.mu. A closed pool grants nothing — Close fails the whole queue
// itself.
func (p *Pool) dispatchLocked() (granted []*Session) {
	if p.closed {
		return nil
	}
	for p.running < p.cfg.MaxSessions {
		s, ok := p.fq.Pop()
		if !ok {
			break
		}
		if !s.waiting {
			continue // aborted by its ctx watch
		}
		p.leaveQueueLocked(s)
		p.running++
		granted = append(granted, s)
	}
	return granted
}

// leaveQueueLocked takes a waiting session out of the admission
// accounting and stops its ctx watch (a no-op when the watch is what
// fired). Caller holds p.mu. The entry itself stays in the FairQueue
// (removal from a FIFO's middle is O(n)) and is skipped there.
func (p *Pool) leaveQueueLocked(s *Session) {
	s.waiting = false
	if s.unwatch != nil {
		s.unwatch()
	}
	p.queued--
	p.tenantQueued[s.tenant]--
}

// abortQueued is a queued session's ctx watch: a session still waiting
// for a slot leaves the queue and completes canceled without running. A
// session the dispatcher granted first runs instead (its dead ctx cancels
// it at once); one Close already failed is left alone.
func (p *Pool) abortQueued(s *Session) {
	p.mu.Lock()
	if !s.waiting {
		p.mu.Unlock()
		return
	}
	p.leaveQueueLocked(s)
	p.mu.Unlock()
	p.finishUnrun(s, &core.CanceledError{Cause: context.Cause(s.ctx)})
}

// releaseSlot returns a finished session's slot and starts the next
// waiting session in WDRR order.
func (p *Pool) releaseSlot() {
	p.mu.Lock()
	p.running--
	granted := p.dispatchLocked()
	p.mu.Unlock()
	for _, s := range granted {
		p.start(s)
	}
}

// runSession is an admitted session's job on the shared scheduler: build
// the isolated runtime, run the program with its root task on this
// worker, record the verdict, release the slot, then run the session's
// completion hook.
func (p *Pool) runSession(s *Session) {
	defer p.drain.Done()
	cur := p.inflight.Add(1)
	for {
		old := p.peak.Load()
		if cur <= old || p.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	if m := pmet(); m != nil {
		m.inflight.Inc()
	}
	s.startedAt = time.Now()
	p.queueWait.Observe(s.startedAt.Sub(s.queuedAt))
	rt := core.NewRuntime(s.runtimeOpts...)
	s.rt.Store(rt)
	// RunContext waits for the session's task tree to unwind even after a
	// cancellation, so the verdict and the runtime stats below are exact —
	// no abandoned goroutine can mutate them later.
	err := rt.RunContext(s.ctx, s.main)
	s.finishedAt = time.Now()
	s.err = err
	s.verdict = Classify(err)
	s.stats = rt.Stats()
	p.execLat.Observe(s.finishedAt.Sub(s.startedAt))

	p.inflight.Add(-1)
	p.completed.Add(1)
	p.verdicts[s.verdict].Add(1)
	p.tasksRun.Add(s.stats.Tasks)
	p.dropped.Add(s.stats.EventsDropped)
	if m := pmet(); m != nil {
		m.inflight.Dec()
		m.countVerdict(s.tlabel, s.verdict)
		if s.stats.EventsDropped > 0 {
			m.eventsDropped.Add(s.stats.EventsDropped)
		}
	}
	// Release the slot BEFORE signalling completion: a caller that Waits
	// and immediately Submits must find the slot free, not race this job
	// for it and get a spurious ErrPoolSaturated. The inflight decrement
	// above precedes the release, so Peak can never read above
	// MaxSessions.
	p.releaseSlot()
	close(s.done)
	if s.onDone != nil {
		s.onDone(s)
	}
}

// finishUnrun completes a session that never started executing — its ctx
// ended, or the pool closed, while it was still queued. The session never
// held a slot and never built a runtime; it completes with the abort
// error and VerdictCanceled, and its completion hook runs here, on the
// ctx watch or the Close caller. Never called with p.mu held.
func (p *Pool) finishUnrun(s *Session, err error) {
	defer p.drain.Done()
	now := time.Now()
	s.startedAt, s.finishedAt = now, now
	s.err = err
	s.verdict = VerdictCanceled
	p.completed.Add(1)
	p.verdicts[VerdictCanceled].Add(1)
	if m := pmet(); m != nil {
		m.countVerdict(s.tlabel, VerdictCanceled)
	}
	close(s.done)
	if s.onDone != nil {
		s.onDone(s)
	}
}

// Close stops admission, fails every session still waiting in the
// admission queues with ErrPoolClosed (VerdictCanceled — queued work does
// NOT ride out the drain), waits for every running session to finish and
// its completion hook to return, and then shuts down the shared scheduler
// (which blocks until all of its workers and its cleaner goroutine have
// exited). Idempotent; concurrent Close calls all block until the drain
// completes.
func (p *Pool) Close() {
	var aborted []*Session
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, s := range p.fq.Drain() {
			if s.waiting {
				p.leaveQueueLocked(s)
				aborted = append(aborted, s)
			}
		}
	}
	p.mu.Unlock()
	for _, s := range aborted {
		p.finishUnrun(s, ErrPoolClosed)
	}
	p.drain.Wait()
	p.exec.Close()
}

// Executor exposes the shared scheduler, for monitoring (SchedStats).
// Submitting work to it directly bypasses session accounting.
func (p *Pool) Executor() *sched.Elastic { return p.exec }

// Observation is the pool's live windowed latency digest: queue-wait and
// execution-time summaries (milliseconds) over roughly the last Span of
// completed sessions. Unlike the lifetime PoolStats counters this
// answers "what are p50/p99 RIGHT NOW" — the signal deadline-aware
// admission control consumes.
type Observation struct {
	Span      time.Duration    `json:"span_ns"`
	QueueWait hist.HistSummary `json:"queue_wait"`
	Exec      hist.HistSummary `json:"exec"`
}

// Observe digests the pool's windowed latency recorders. Usable live,
// with or without a metrics registry installed; reads are control-plane
// cost (a scratch histogram merge), so poll it per admission decision or
// per scrape, not per task.
func (p *Pool) Observe() Observation {
	return Observation{
		Span:      p.execLat.Span(),
		QueueWait: p.queueWait.Summary(),
		Exec:      p.execLat.Summary(),
	}
}

// PoolStats is a snapshot of the pool's aggregate accounting.
type PoolStats struct {
	Submitted int64 `json:"submitted"` // accepted sessions (running, queued, or done)
	Rejected  int64 `json:"rejected"`  // all synchronous rejections
	// RejectedDeadline counts the subset of Rejected shed by
	// deadline-aware admission (ErrDeadlineInfeasible).
	RejectedDeadline int64 `json:"rejected_deadline"`
	Completed        int64 `json:"completed"`
	InFlight         int64 `json:"in_flight"`
	Waiting          int64 `json:"waiting"`
	Peak             int64 `json:"peak_in_flight"`

	// Per-verdict counts over completed sessions. Canceled counts both
	// sessions cancelled mid-execution (their ctx ended) and sessions
	// aborted in the admission queue by their ctx or by Close.
	Clean            int64 `json:"clean"`
	Deadlocks        int64 `json:"deadlocks"`
	PolicyViolations int64 `json:"policy_violations"`
	Failed           int64 `json:"failed"`
	Canceled         int64 `json:"canceled"`

	TasksRun      int64 `json:"tasks_run"`      // sum of session task counts
	EventsDropped int64 `json:"events_dropped"` // sum over traced sessions; 0 when healthy

	// Shared-scheduler counters (sched.SchedStats). Spawned+Reused is
	// the submission total; Thieves are cascade-spawned workers beyond
	// those; Steals measures cross-worker load redistribution — a steal
	// moves only the job, never its session attribution, because a task
	// is counted by its own session's runtime wherever it runs.
	WorkersSpawned int64 `json:"workers_spawned"`
	WorkersReused  int64 `json:"workers_reused"`
	WorkerThieves  int64 `json:"worker_thieves"`
	Steals         int64 `json:"steals"`
	Wakes          int64 `json:"wakes"`
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	waiting := int64(p.queued)
	p.mu.Unlock()
	ss := p.exec.SchedStats()
	return PoolStats{
		Submitted:        p.submitted.Load(),
		Rejected:         p.rejected.Load(),
		RejectedDeadline: p.rejectedDeadline.Load(),
		Completed:        p.completed.Load(),
		InFlight:         p.inflight.Load(),
		Waiting:          waiting,
		Peak:             p.peak.Load(),
		Clean:            p.verdicts[VerdictClean].Load(),
		Deadlocks:        p.verdicts[VerdictDeadlock].Load(),
		PolicyViolations: p.verdicts[VerdictPolicy].Load(),
		Failed:           p.verdicts[VerdictFailed].Load(),
		Canceled:         p.verdicts[VerdictCanceled].Load(),
		TasksRun:         p.tasksRun.Load(),
		EventsDropped:    p.dropped.Load(),
		WorkersSpawned:   ss.Spawned,
		WorkersReused:    ss.Reused,
		WorkerThieves:    ss.Thieves,
		Steals:           ss.Steals,
		Wakes:            ss.Wakes,
	}
}
