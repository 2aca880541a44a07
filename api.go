// Package repro is an implementation of "An Ownership Policy and Deadlock
// Detector for Promises" (Voss & Sarkar, PPoPP 2021): promises whose
// fulfilment obligation is owned by exactly one task at a time, omitted
// sets reported with blame the moment the guilty task exits, and a
// lock-free detector that raises an alarm at the instant a deadlock cycle
// forms — precisely, with no false alarms.
//
// This package is a thin facade over the implementation packages:
//
//	internal/core        ownership policy + deadlock detector (the paper)
//	internal/collections Channel (Listing 4), Future, Finish, barriers
//	internal/sched       task executors
//	internal/serve       the multi-session serving layer (Pool/Session)
//	internal/graph       session-graph orchestration (DAGs over a Pool)
//	internal/trace       binary trace sinks + offline verification
//	internal/obs         metrics: counters, windows, /metrics endpoint
//	internal/harness     the Table 1 / Figure 1 measurement harness
//	internal/workloads   the nine evaluation benchmarks
//
// Quick start:
//
//	rt := repro.NewRuntime()
//	err := rt.Run(func(t *repro.Task) error {
//	    p := repro.NewPromise[string](t)
//	    t.Async(func(child *repro.Task) error {
//	        return p.Set(child, "hello")
//	    }, p) // move p: the child now owns the obligation to set it
//	    msg, err := p.Get(t)
//	    ...
//	})
//
// The blocking surface is context-first: Runtime.RunContext runs a
// program under a cancellation scope (cancelling it unblocks every
// descendant's wait — structured cancellation, with ownership blame still
// reported on the way down), Promise.GetContext / AwaitContext bound a
// single wait, and Pool.Submit takes a ctx covering a session's admission
// wait and execution (a cancelled session classifies as VerdictCanceled).
// Cancellation is not an alarm: the deadlock detector keeps its
// alarm-iff-deadlock precision, and a cancelled run's trace still passes
// offline verification (every block closed by a wake, detail "cancel").
package repro

import (
	"repro/internal/core"
	"repro/internal/front"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Core types, re-exported.
type (
	// Runtime owns a family of tasks and promises and enforces the policy.
	Runtime = core.Runtime
	// Task is one asynchronous task; all promise operations name the task
	// performing them.
	Task = core.Task
	// TaskFunc is the body of a task.
	TaskFunc = core.TaskFunc
	// Promise is a write-once, many-reader cell with an owner.
	Promise[T any] = core.Promise[T]
	// AnyPromise is the payload-independent view of a promise.
	AnyPromise = core.AnyPromise
	// Movable is anything whose promises move to a child at spawn
	// (the paper's PromiseCollection); AppendPromises lists them.
	Movable = core.Movable
	// Group aggregates Movables.
	Group = core.Group
	// Mode selects how much verification is active.
	Mode = core.Mode
	// DetectorKind selects the deadlock-detection algorithm in Full mode.
	DetectorKind = core.DetectorKind
	// Option configures a Runtime.
	Option = core.Option
	// Job is what a custom executor runs: one spawned task, handed over
	// as interface{ Run() } with no closure (sched.Job is the same type).
	Job = core.Job
	// Executor is what WithExecutor installs: Execute(Job) and
	// ExecuteBatch([]Job).
	Executor = core.Executor
	// Stats are cumulative event counts.
	Stats = core.Stats
	// Event is one entry of the optional event log.
	Event = core.Event
	// EventKind classifies event-log entries.
	EventKind = core.EventKind
	// SpawnSpec describes one child of a Task.AsyncBatch fan-out.
	SpawnSpec = core.SpawnSpec

	// CanceledError reports a wait or run abandoned because its context
	// was canceled or reached its deadline (not an alarm: cancellation
	// proves nothing about the program).
	CanceledError = core.CanceledError
	// OwnershipError reports a set/move by a non-owner.
	OwnershipError = core.OwnershipError
	// DoubleSetError reports a second fulfilment.
	DoubleSetError = core.DoubleSetError
	// OmittedSetError reports a task that died owing promises.
	OmittedSetError = core.OmittedSetError
	// BrokenPromiseError unblocks consumers of leaked promises.
	BrokenPromiseError = core.BrokenPromiseError
	// DeadlockError reports a detected cycle, with every task and promise.
	DeadlockError = core.DeadlockError
	// CycleNode is one hop of a DeadlockError.
	CycleNode = core.CycleNode
	// PanicError wraps a recovered task panic.
	PanicError = core.PanicError
)

// Verification modes.
const (
	// Unverified is the plain-promise baseline.
	Unverified = core.Unverified
	// Ownership enforces Algorithm 1 (omitted-set detection).
	Ownership = core.Ownership
	// Full adds Algorithm 2 (deadlock-cycle detection). The default.
	Full = core.Full
)

// Detector kinds (Full mode).
const (
	// DetectLockFree is the paper's Algorithm 2. The default.
	DetectLockFree = core.DetectLockFree
	// DetectGlobalLock is the centralized waits-for-graph comparator.
	DetectGlobalLock = core.DetectGlobalLock
)

// Runtime constructors and options, re-exported.
var (
	// NewRuntime creates a runtime (Full verification by default).
	NewRuntime = core.NewRuntime
	// WithMode selects the verification mode.
	WithMode = core.WithMode
	// WithDetector selects the cycle-detection algorithm.
	WithDetector = core.WithDetector
	// WithEventCounting enables get/set counters.
	WithEventCounting = core.WithEventCounting
	// WithAlarmHandler installs a detection callback.
	WithAlarmHandler = core.WithAlarmHandler
	// WithExecutor replaces the task executor with an Executor: Async
	// hands it one Job, AsyncBatch a whole fan-out (*sched.Elastic fits
	// directly).
	WithExecutor = core.WithExecutor
	// WithIdleWatch installs the whole-program quiescence comparator (§1).
	WithIdleWatch = core.WithIdleWatch
	// TraceTo streams every policy event to a trace sink (see
	// internal/trace for the binary format and sinks, and cmd/tracecheck
	// for offline verification of recorded traces); a TraceMemSink's
	// Snapshot is the run's post-mortem event log.
	TraceTo = core.TraceTo
	// Await is the type-erased policy-checked wait (see core.Await).
	Await = core.Await
	// AwaitContext is Await bounded by a context: the wait aborts with a
	// CanceledError when ctx is canceled or reaches its deadline.
	AwaitContext = core.AwaitContext
)

// Trace subsystem surface (see internal/trace): the sink types TraceTo
// accepts, the binary-trace reader, and the offline verifier that
// re-derives a run's verdict from its trace alone (cmd/tracecheck is the
// command-line form).
type (
	// TraceSink receives trace-event batches from the collector.
	TraceSink = trace.Sink
	// TraceMemSink retains trace events in memory.
	TraceMemSink = trace.MemSink
	// TraceReport is the offline verifier's verdict over one trace.
	TraceReport = trace.Report
)

var (
	// NewTraceFileSink streams the binary trace format to a file.
	NewTraceFileSink = trace.NewFileSink
	// NewTraceWriterSink streams the binary trace format to an io.Writer.
	NewTraceWriterSink = trace.NewWriterSink
	// NewTraceMemSink retains trace events in memory (limit 0 = all).
	NewTraceMemSink = trace.NewMemSink
	// ReadTraceFile decodes a binary trace file into Seq-sorted events.
	ReadTraceFile = trace.ReadFile
	// VerifyTrace replays a trace and independently re-checks its run.
	VerifyTrace = trace.Verify
)

// Serving-layer surface (see internal/serve): many concurrent, isolated
// runtime sessions over one shared elastic scheduler, with QoS-aware
// admission control in front (deadline shedding, weighted-fair tenants)
// and per-session verdicts behind. cmd/loadgen is the mixed-scenario
// driver built on it, and internal/front (cmd/frontd) serves the same
// pool over framed TCP to remote clients.
type (
	// Pool runs many isolated sessions on one shared scheduler.
	Pool = serve.Pool
	// ServeOption configures serving behaviour. Every option but
	// WithRuntime acts at one scope, pool (NewServePool) or submit
	// (Pool.Submit); WithRuntime acts at both, the submit-scope list
	// landing after the pool's.
	ServeOption = serve.Option
	// PoolStats is the pool's aggregate accounting snapshot.
	PoolStats = serve.PoolStats
	// PoolObservation is Pool.Observe's windowed latency digest: recent
	// (not lifetime) queue-wait and execution-time quantiles — the signal
	// deadline-aware admission consumes.
	PoolObservation = serve.Observation
	// Session is one submitted program's local handle.
	Session = serve.Session
	// Verdict classifies how a session ended.
	Verdict = serve.Verdict
	// DeadlineInfeasibleError is the typed rejection carrying the
	// admission math behind a deadline shed.
	DeadlineInfeasibleError = serve.DeadlineInfeasibleError
)

// Session verdicts.
const (
	// VerdictClean marks a session that terminated without error.
	VerdictClean = serve.VerdictClean
	// VerdictDeadlock marks a detected cycle.
	VerdictDeadlock = serve.VerdictDeadlock
	// VerdictPolicy marks an ownership-policy violation.
	VerdictPolicy = serve.VerdictPolicy
	// VerdictFailed marks any other failure.
	VerdictFailed = serve.VerdictFailed
	// VerdictCanceled marks a session whose caller gave up: its context
	// ended (queued or mid-flight), or Pool.Close aborted its admission.
	VerdictCanceled = serve.VerdictCanceled
)

var (
	// NewServePool creates a serving pool from ServeOption values.
	NewServePool = serve.New
	// ClassifyVerdict maps a run error to its Verdict.
	ClassifyVerdict = serve.Classify
	// ErrPoolSaturated rejects a Submit beyond the admission limits.
	ErrPoolSaturated = serve.ErrPoolSaturated
	// ErrPoolClosed rejects a Submit after Pool.Close.
	ErrPoolClosed = serve.ErrPoolClosed
	// ErrDeadlineInfeasible rejects a Submit whose ctx deadline cannot be
	// met per the pool's observed latency windows (deadline-aware
	// admission; errors.Is-matchable sentinel).
	ErrDeadlineInfeasible = serve.ErrDeadlineInfeasible

	// Serving options (ServeOption), each named with its scope.

	// WithMaxSessions bounds concurrently running sessions (pool scope).
	WithMaxSessions = serve.WithMaxSessions
	// WithQueueDepth bounds waiting sessions PER TENANT (pool scope).
	WithQueueDepth = serve.WithQueueDepth
	// WithTenantWeight sets a tenant's weighted-fair admission share
	// (pool scope).
	WithTenantWeight = serve.WithTenantWeight
	// WithRuntime appends core options to session runtimes (both scopes;
	// submit-scope options land after the pool's and win).
	WithRuntime = serve.WithRuntime
	// WithTenant names a session's fairness tenant (submit scope).
	WithTenant = serve.WithTenant
	// WithDeadlineAdmission toggles deadline-aware admission (pool
	// scope).
	WithDeadlineAdmission = serve.WithDeadlineAdmission
)

// Session-graph surface (see internal/graph): DAGs of dependent
// sessions over one Pool. Nodes are named session bodies; an edge hands
// an upstream node's output to its consumers through a cross-session
// Future fulfilled exactly when the producer's verdict is clean. The
// orchestrator submits a node the moment all of its inputs are
// fulfilled, applies per-node policy (retry with backoff, per-attempt
// timeout), and on a terminal failure cascade-cancels exactly the
// dependents — independent branches run to completion.
// cmd/loadgen -graph is the invariant-checking driver built on it.
type (
	// Graph is a single-shot DAG of dependent sessions; NewGraph builds
	// one, Graph.Node declares nodes (dependencies must already be
	// declared, so a Graph is acyclic by construction), Graph.Run
	// executes it on a Pool.
	Graph = graph.Graph
	// Node is one declared vertex: a named session body plus policy.
	Node = graph.Node
	// NodeFunc is a node's body: a session program that consumes its
	// dependencies' outputs and returns this node's output.
	NodeFunc = graph.NodeFunc
	// NodeOption is per-node policy for Graph.Node.
	NodeOption = graph.NodeOption
	// NodeRetry bounds a node's attempts and paces them (exponential
	// backoff from Backoff, capped).
	NodeRetry = graph.Retry
	// Inputs carries the fulfilled upstream outputs into a node body;
	// GraphInput is the typed accessor.
	Inputs = graph.Inputs
	// Future is the cross-session handoff cell for one node's output:
	// fulfilled on the producer's clean verdict, failed on its terminal
	// error.
	Future = graph.Future
	// NodeState is a node's lifecycle state in a GraphResult.
	NodeState = graph.NodeState
	// NodeResult is one node's terminal accounting: state, verdict,
	// attempts, body runs, error, output, timing.
	NodeResult = graph.NodeResult
	// GraphResult is Graph.Run's report: per-node results, aggregate
	// counts, retries, and the critical path.
	GraphResult = graph.GraphResult
	// ErrUpstream marks a cascade-canceled node: Node names the ROOT
	// failure, Cause (unwrapped) is why it went down.
	ErrUpstream = graph.ErrUpstream
)

// Node lifecycle states (NodeResult.State).
const (
	// NodePending marks a node still waiting on inputs.
	NodePending = graph.NodePending
	// NodeRunning marks a node submitted or executing.
	NodeRunning = graph.NodeRunning
	// NodeSucceeded marks a clean verdict; the node's Future is fulfilled.
	NodeSucceeded = graph.NodeSucceeded
	// NodeFailed marks a terminal failure after the retry budget.
	NodeFailed = graph.NodeFailed
	// NodeCanceled marks a node cascade-canceled by an upstream failure
	// (its body never ran) or killed by graph-context cancellation.
	NodeCanceled = graph.NodeCanceled
)

var (
	// NewGraph creates an empty named session graph.
	NewGraph = graph.New
	// NodeAfter declares a node's dependencies (already-declared names).
	NodeAfter = graph.After
	// WithNodeRetry sets a node's retry policy (attempt cap + backoff).
	WithNodeRetry = graph.WithRetry
	// WithNodeTimeout bounds each attempt; a timed-out attempt is
	// retryable (errors.Is ErrNodeTimeout), unlike a graph-level cancel.
	WithNodeTimeout = graph.WithTimeout

	// ErrNodeTimeout is the cancellation cause of a timed-out node
	// attempt (retryable; distinguishes attempt deadline from terminal
	// graph cancellation).
	ErrNodeTimeout = graph.ErrNodeTimeout
)

// GraphInput reads the output a named dependency handed to this node,
// typed: an error (never a panic) on an undeclared dependency or a
// payload-type mismatch, so a consumer can fail its own node cleanly.
func GraphInput[T any](in Inputs, node string) (T, error) {
	return graph.In[T](in, node)
}

// Network front-end surface (see internal/front): the framed-TCP
// client/server protocol over the serving pool — remote session
// submission by registered workload name, per-tenant API keys mapped
// onto weighted-fair tenants, deadline-aware admission at the listener,
// streamed verdicts, and graceful drain (Front.Shutdown). cmd/frontd is
// the server binary; FrontClient the Go client.
type (
	// Front is the TCP serving front-end; New binds and serves.
	Front = front.Front
	// FrontConfig configures a Front: address, API-key map, workload
	// registry, and the pool's ServeOption list.
	FrontConfig = front.Config
	// FrontRegistry maps wire workload names to session programs.
	FrontRegistry = front.Registry
	// FrontClient is the Go client for a Front (one TCP connection).
	FrontClient = front.Client
	// SubmitRequest describes one remote session submission.
	SubmitRequest = front.SubmitRequest
	// RemoteSession is an accepted remote session whose verdict arrives
	// over the wire.
	RemoteSession = front.RemoteSession
	// RemoteError is a session error reconstructed from the wire.
	RemoteError = front.RemoteError

	// Fault-tolerant client surface: retrying, reconnecting submission.

	// FrontDialOptions tunes a FrontClient connection: write deadline,
	// heartbeat cadence and miss tolerance, dial timeout.
	FrontDialOptions = front.DialOptions
	// ResilientFrontClient submits to one front with typed-error retry
	// classification, full-jitter backoff and automatic reconnect.
	// Accepted sessions are never resubmitted, so verdicts stay
	// exactly-once.
	ResilientFrontClient = front.ResilientClient
	// FrontClientStats counts a client's missed heartbeats and
	// unmatched verdict frames.
	FrontClientStats = front.ClientStats
	// SpilledVerdict is a verdict the server could not deliver to a
	// slow or dead client; Front.Spilled returns the retained log.
	SpilledVerdict = front.SpilledVerdict
)

var (
	// NewFront binds a Front's listener and starts serving.
	NewFront = front.New
	// DialFront connects and authenticates a FrontClient.
	DialFront = front.Dial
	// DialFrontOpts is DialFront with explicit DialOptions (write
	// deadline, heartbeats, dial timeout).
	DialFrontOpts = front.DialOpts
	// DialFrontResilient builds a ResilientFrontClient for one front
	// address.
	DialFrontResilient = front.DialResilient
	// DefaultFrontRegistry is the standard workload registry (the
	// benchmark table plus the Listing 1 "Deadlock" probe).
	DefaultFrontRegistry = front.DefaultRegistry

	// ErrFrontHeartbeat reports a connection declared dead after
	// consecutive unanswered heartbeats.
	ErrFrontHeartbeat = front.ErrHeartbeat
	// ErrFrontWriteTimeout reports a frame write that missed its
	// deadline (slow peer).
	ErrFrontWriteTimeout = front.ErrWriteTimeout
	// ErrFrontRefused reports an authentication rejection at dial.
	ErrFrontRefused = front.ErrRefused
)

// Observability surface (see internal/obs): a process-wide metrics
// registry of lock-free padded-atomic counters, gauges, labeled counter
// families and windowed latency recorders. With no registry installed
// every instrumentation site in the runtime costs one atomic pointer
// load and a branch; InstallMetrics turns the counters on process-wide,
// and ServeMetrics exposes the registry over HTTP (/metrics Prometheus
// text, /metrics.json snapshot JSON, /debug/pprof).
type (
	// MetricsRegistry is a named set of metrics with a cheap snapshot.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every registered metric.
	MetricsSnapshot = obs.Snapshot
	// MetricsServer is the HTTP endpoint returned by ServeMetrics.
	MetricsServer = obs.Server
)

var (
	// NewMetricsRegistry creates an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// InstallMetrics makes reg the process-wide registry every subsystem
	// reports into (nil uninstalls — instrumentation reverts to free).
	InstallMetrics = obs.Install
	// InstalledMetrics returns the process-wide registry, or nil.
	InstalledMetrics = obs.Installed
	// ServeMetrics serves reg (nil = the installed registry) over HTTP.
	ServeMetrics = obs.Serve
)

// ErrTimeout is the conventional cancellation cause for a whole-run
// deadline: pass it to context.WithTimeoutCause and run under
// Runtime.RunDetached to reproduce the historical run-with-timeout
// contract (abandon the frozen hang, report this sentinel).
var ErrTimeout = core.ErrTimeout

// ErrAwaitTimeout is the conventional cancellation cause for a single
// timed wait: pass it to context.WithTimeoutCause and wait with
// Promise.GetContext; the deadline then reports a CanceledError whose
// cause errors.Is-matches this sentinel.
var ErrAwaitTimeout = core.ErrAwaitTimeout

// NewPromise allocates a promise owned by t (rule 1 of the policy).
func NewPromise[T any](t *Task) *Promise[T] { return core.NewPromise[T](t) }

// NewPromiseNamed allocates a labelled promise owned by t.
func NewPromiseNamed[T any](t *Task, label string) *Promise[T] {
	return core.NewPromiseNamed[T](t, label)
}
