package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Mode selects how much of the paper's machinery is active.
type Mode uint8

const (
	// Unverified is the paper's baseline: plain promises with no ownership
	// tracking and no deadlock detection. Double sets are still errors.
	Unverified Mode = iota
	// Ownership enforces the ownership policy (Algorithm 1): omitted sets
	// are detected with blame, but deadlock cycles are not.
	Ownership
	// Full enforces the ownership policy and runs the deadlock detector
	// (Algorithms 1 and 2): cycles are detected the moment they form.
	Full
)

// String returns the mode name used in benchmark output.
func (m Mode) String() string {
	switch m {
	case Unverified:
		return "unverified"
	case Ownership:
		return "ownership"
	case Full:
		return "full"
	default:
		return "unknown"
	}
}

// DetectorKind selects the deadlock-detection algorithm used in Full mode.
type DetectorKind uint8

const (
	// DetectLockFree is the paper's Algorithm 2: no locks, no fences in
	// the traversal loop, precise under weak memory.
	DetectLockFree DetectorKind = iota
	// DetectGlobalLock is an ablation comparator in the style of global
	// waits-for-graph tools (e.g. Armus): a single mutex serializes every
	// blocking wait while the graph is checked. Used to quantify what the
	// lock-free design buys.
	DetectGlobalLock
)

// String returns the detector name used in benchmark output and trace
// metadata.
func (k DetectorKind) String() string {
	switch k {
	case DetectLockFree:
		return "lockfree"
	case DetectGlobalLock:
		return "globallock"
	default:
		return "unknown"
	}
}

// OwnedTracking selects the representation of a task's owned set (§6.2).
type OwnedTracking uint8

const (
	// TrackList keeps the actual list of owned promises with exact O(1)
	// removal (each promise remembers its slot, so discharge at set or
	// move is a swap-delete). Omitted-set reports name the promises and
	// the exceptional-completion cascade can unblock their consumers.
	// This is the default: it never pins fulfilled promises, so
	// long-lived tasks (e.g. channel senders) do not leak their whole
	// history to the garbage collector.
	TrackList OwnedTracking = iota
	// TrackCounter keeps only a count: smallest footprint, but omitted-set
	// reports carry no blame beyond the task and no cascade is possible.
	TrackCounter
)

// String returns the tracking name used in benchmark output and trace
// metadata.
func (k OwnedTracking) String() string {
	switch k {
	case TrackList:
		return "list"
	case TrackCounter:
		return "counter"
	default:
		return "unknown"
	}
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithMode selects the verification mode (default Full).
func WithMode(m Mode) Option { return func(r *Runtime) { r.mode = m } }

// WithDetector selects the deadlock detector used in Full mode
// (default DetectLockFree).
func WithDetector(k DetectorKind) Option { return func(r *Runtime) { r.detector = k } }

// WithOwnedTracking selects the owned-set representation (default TrackList).
func WithOwnedTracking(k OwnedTracking) Option { return func(r *Runtime) { r.tracking = k } }

// WithEventCounting enables get/set counters, used by the benchmark
// harness to reproduce the Gets/ms and Sets/ms columns of Table 1. Off by
// default so the hot path of timed runs pays nothing.
func WithEventCounting(on bool) Option { return func(r *Runtime) { r.countEvents = on } }

// WithAlarmHandler installs a callback invoked synchronously at the moment
// a policy violation or deadlock is detected, before the error propagates.
func WithAlarmHandler(f func(error)) Option { return func(r *Runtime) { r.onAlarm = f } }

// Job is what an executor runs: one spawned task, handed over without a
// closure. It is an alias of the interface literal — sched.Job is the
// same type — so an executor's methods type-check against Executor
// without either package importing the other.
type Job = interface{ Run() }

// Executor runs spawned tasks in place of the default go statement.
// Execute receives one task (Async); ExecuteBatch receives a whole
// AsyncBatch fan-out in one call, so the executor can amortize its
// submission bookkeeping (deque pushes, wakeups, searcher accounting)
// across the batch. Each Job's Run runs its task. *sched.Elastic
// satisfies Executor.
type Executor interface {
	Execute(Job)
	ExecuteBatch([]Job)
}

// WithExecutor replaces the task executor. The default (nil) starts each
// task on its own goroutine with a plain go statement, which is the
// unbounded-growth execution strategy the paper requires (there is no
// a-priori bound on simultaneously blocked tasks). A custom executor
// receives each spawned task as a Job; the task carries its own body, so
// the hand-off allocates nothing. See the sched package for an elastic
// pool alternative.
func WithExecutor(exec Executor) Option { return func(r *Runtime) { r.exec = exec } }

// WithIdleWatch installs the whole-program quiescence detector the paper
// contrasts with in §1 (the Go runtime's strategy): onQuiescent fires when
// every live task is blocked on a promise, receiving the number of blocked
// tasks. A single runnable bystander task silences it — which is exactly
// the blind spot the per-wait detector does not have; see the comparator
// tests. Adds two counter updates per blocking wait.
func WithIdleWatch(onQuiescent func(liveTasks int)) Option {
	return func(r *Runtime) { r.idle = newIdleWatch(onQuiescent) }
}

// Stats are cumulative event counts for a runtime.
type Stats struct {
	Tasks    int64 // tasks started, the root included (always counted)
	Finished int64 // tasks terminated (always counted); Tasks-Finished are live
	Gets     int64 // Get operations (only with WithEventCounting)
	Sets     int64 // Set/SetError operations (only with WithEventCounting)
	// EventsDropped counts trace events logged after TraceClose (the
	// collector never drops one before). Always 0 when tracing is off,
	// and 0 on any healthy traced run — the tier-1 tests assert exactly
	// that.
	EventsDropped int64
}

// Runtime owns a family of tasks and promises and enforces the configured
// policy across them. A Runtime is typically used for one program run:
// create, Run, inspect errors.
type Runtime struct {
	mode        Mode
	detector    DetectorKind
	tracking    OwnedTracking
	countEvents bool
	onAlarm     func(error)
	exec        Executor       // nil selects the built-in goroutine-per-task start
	gdet        globalDetector // used only when mode == Full && detector == DetectGlobalLock
	idle        *idleWatch
	events      *tracer

	wg sync.WaitGroup

	mu   sync.Mutex
	errs []error

	nextTask    atomic.Uint64
	nextPromise atomic.Uint64
	tasks       atomic.Int64
	finished    atomic.Int64
	gets        atomic.Int64
	sets        atomic.Int64

	// run is the active run-level cancellation scope (see context.go):
	// installed by RunContext before the root task starts, nil when the
	// run cannot be cancelled. Blocking waits load it on their slow path.
	run runScopePtr

	// runWaitsCanceled records that at least one wait was aborted BY THE
	// RUN SCOPE (not by a per-call ctx) during the current run. RunContext
	// joins its CanceledError only when this is set: a program that ran to
	// completion without a single wait disturbed is reported as it
	// finished, even if the scope expired at the very end — the run-level
	// form of fulfilment-beats-cancellation.
	runWaitsCanceled atomic.Bool
}

// defaultDetector returns the detector used when WithDetector is absent:
// the paper's lock-free Algorithm 2, unless the DEADLOCK_DETECTOR
// environment variable selects otherwise ("lockfree" or "globallock").
// The env hook exists so the whole test suite — and anything else that
// constructs runtimes without an explicit WithDetector — can be swept
// under the ablation comparator by CI without a per-call-site flag; an
// explicit WithDetector always wins, since options run after defaults.
func defaultDetector() DetectorKind {
	if os.Getenv("DEADLOCK_DETECTOR") == "globallock" {
		return DetectGlobalLock
	}
	return DetectLockFree
}

// NewRuntime creates a runtime. The default configuration is the paper's
// evaluated one: Full mode, lock-free detector, owned lists, goroutine per
// task, no event counting. (The default detector can be redirected by the
// DEADLOCK_DETECTOR environment variable; see defaultDetector.)
func NewRuntime(opts ...Option) *Runtime {
	r := &Runtime{
		mode:     Full,
		detector: defaultDetector(),
		tracking: TrackList,
	}
	for _, o := range opts {
		o(r)
	}
	if r.events != nil {
		r.startTracer()
	}
	return r
}

// Mode returns the runtime's verification mode.
func (r *Runtime) Mode() Mode { return r.mode }

// Detector returns the configured detector kind.
func (r *Runtime) Detector() DetectorKind { return r.detector }

// Tracking returns the configured owned-set representation.
func (r *Runtime) Tracking() OwnedTracking { return r.tracking }

// Stats returns the cumulative event counters. It is safe to call while
// the program runs: Finished is loaded before Tasks, so a live read never
// reports more tasks finished than started.
func (r *Runtime) Stats() Stats {
	finished := r.finished.Load()
	return Stats{
		Finished:      finished,
		Tasks:         r.tasks.Load(),
		Gets:          r.gets.Load(),
		Sets:          r.sets.Load(),
		EventsDropped: int64(r.EventsDropped()),
	}
}

// Run executes main as the root task and blocks until every task spawned
// (transitively) has terminated. It returns the joined errors of all
// failed tasks, or nil if the program completed cleanly.
//
// Run corresponds to the paper's Init procedure followed by program
// completion. As in Init, the root task runs on the thread that starts
// the program: main executes on the goroutine that called Run, with the
// same accounting as any spawned task (task count, metrics, idle watch,
// EvTaskStart), and never passes through the executor — only the tasks it
// spawns do. Note that under Unverified and Ownership modes a deadlocked
// program never terminates and Run never returns; use RunDetached with a
// deadline context to demonstrate that behaviour safely, or RunContext
// for cooperative caller-side cancellation (see context.go).
func (r *Runtime) Run(main TaskFunc) error {
	if r.events != nil {
		// The configuration meta record lets the offline verifier know
		// which policy checks were active when it replays the trace.
		r.logEvent(trace.KindMeta, nil, nil,
			fmt.Sprintf("mode=%s detector=%s tracking=%s", r.mode, r.detector, r.tracking))
	}
	root := r.newTask("main", nil)
	r.beginTask(root)
	r.runTask(root, main)
	r.wg.Wait()
	err := r.Err()
	if r.events != nil {
		r.mu.Lock()
		n := len(r.errs)
		r.mu.Unlock()
		// run-end marks a fully unwound program; its absence from a
		// trace means the run hung or was cut short.
		r.logEventArg(trace.KindRunEnd, nil, nil, uint64(n), "")
	}
	return err
}

// Errors returns a copy of every error recorded by terminated tasks so far.
func (r *Runtime) Errors() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]error, len(r.errs))
	copy(out, r.errs)
	return out
}

// Err returns the recorded errors joined, or nil if none.
func (r *Runtime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return errors.Join(r.errs...)
}

func (r *Runtime) record(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

func (r *Runtime) alarm(err error) {
	if m := cmet(); m != nil {
		m.countAlarm(err)
	}
	if r.events != nil {
		r.logAlarm(err)
	}
	if r.onAlarm != nil {
		r.onAlarm(err)
	}
}

func joinErrs(a, b error) error {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return errors.Join(a, b)
	}
}
