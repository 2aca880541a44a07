package core

import (
	"repro/internal/trace"
)

// The runtime's event log is backed by the internal/trace subsystem: a
// collector that stamps each event with a global sequence number and
// delivers it synchronously to the configured sinks under one mutex.
// Each task stages its events and delivers them in batches (see
// tracer), so it takes that lock once per batch. The Event and
// EventKind names below are aliases so existing call sites and the
// public facade keep working.

// EventKind classifies an entry in the runtime's event log.
type EventKind = trace.Kind

// Event kinds, covering every policy-relevant action: the life cycle of
// a promise (allocate, move, fulfil), the blocking structure (block,
// wake), task boundaries, and alarms. The trace package adds stream
// kinds (gap, meta, run-end) on top of these.
const (
	EvNewPromise = trace.KindNewPromise
	EvMove       = trace.KindMove
	EvSet        = trace.KindSet
	EvSetError   = trace.KindSetError
	EvBlock      = trace.KindBlock
	EvWake       = trace.KindWake
	EvTaskStart  = trace.KindTaskStart
	EvTaskEnd    = trace.KindTaskEnd
	EvAlarm      = trace.KindAlarm
)

// Event is one entry of the event log: which task did what to which
// promise (fields are zero when not applicable). Seq is a global
// sequence number; events with ascending Seq are in a total order
// consistent with each task's program order.
type Event = trace.Event

// tracer wires a Runtime to a trace.Collector: extra accumulates
// TraceTo sinks until NewRuntime builds the collector.
//
// Every traced task stages its events: they accumulate in a small
// task-local buffer (no shared atomics beyond the sequence fetch) and
// flush to the collector in chunks — at buffer capacity, before the
// task commits to a blocking wait, and at task end. Sequence numbers
// are still reserved at the moment each event is logged, so the
// reconstructed total order is that of the events; only delivery is
// deferred. A task parked on a promise has flushed everything it did,
// so a mid-run MemSink snapshot shows every wait.
type tracer struct {
	c     *trace.Collector
	extra []trace.Sink
}

// ensureTracer returns the runtime's tracer, creating the pre-collector
// shell on first use (options run before NewRuntime builds the
// collector).
func (r *Runtime) ensureTracer() *tracer {
	if r.events == nil {
		r.events = &tracer{}
	}
	return r.events
}

// startTracer builds the collector once all options have registered
// their sinks. Called from NewRuntime.
func (r *Runtime) startTracer() {
	r.events.c = trace.New(r.events.extra...)
}

// TraceTo streams every policy event (promise allocation, moves, sets,
// blocks, wakes, task boundaries, alarms) to sink: the binary trace
// format for trace.NewFileSink / trace.NewWriterSink (see internal/trace,
// and cmd/tracecheck for offline verification), or a window in memory
// for trace.NewMemSink, whose Snapshot is the run's post-mortem log.
// Several TraceTo sinks share one collector. Call Runtime.TraceClose
// when done to flush and close the sinks deterministically.
func TraceTo(sink trace.Sink) Option {
	return func(r *Runtime) {
		tr := r.ensureTracer()
		tr.extra = append(tr.extra, sink)
	}
}

// TraceFlush returns the first sink error, if any. The collector
// delivers synchronously, so once the program is quiescent (e.g. after
// Run returns) every event is already in the sinks; mid-run, a running
// task's staged events (at most stageCap) reach them at its next block
// or at its end.
func (r *Runtime) TraceFlush() error {
	if r.events == nil {
		return nil
	}
	return r.events.c.Flush()
}

// TraceClose closes every sink (flushing file sinks to disk).
// Idempotent. The runtime must not record further events afterwards,
// so call it only after Run has returned.
func (r *Runtime) TraceClose() error {
	if r.events == nil {
		return nil
	}
	return r.events.c.Close()
}

// EventsDropped returns the number of events logged after TraceClose,
// which the collector counts instead of delivering. The collector never
// drops an event before Close (a slow sink makes writers wait), so zero
// means the trace is complete; tier-1 tests assert exactly that.
func (r *Runtime) EventsDropped() uint64 {
	if r.events == nil {
		return 0
	}
	return r.events.c.Dropped()
}

// stageCap is the per-task staging buffer's capacity. 32 events covers
// the typical promise lifecycle burst a task emits between blocking
// points; at ~90 bytes per Event the buffer stays under 3 KiB, and its
// backing array is allocated once per task, on the task's first event.
const stageCap = 32

// logEvent records an event if tracing is enabled. Hot paths call it
// behind a nil check on r.events, so disabled logging costs one branch.
// Task and promise names are recorded raw ("" for the defaults, which
// render lazily as task-<id>/promise-<id>), so emission never pays a
// Sprintf.
func (r *Runtime) logEvent(kind EventKind, t *Task, s *pstate, detail string) {
	r.logEventArg(kind, t, s, 0, detail)
}

// logEventArg is logEvent with the kind-specific argument (move
// destination, spawn parent, alarm class — see trace.Event).
//
// Events attributed to a task are confined to that task's goroutine, so
// they append to the task's private buffer with no shared write beyond
// the sequence reservation. Task-less events (run meta, run-end,
// alarms) emit directly.
func (r *Runtime) logEventArg(kind EventKind, t *Task, s *pstate, arg uint64, detail string) {
	e := Event{Kind: kind, Arg: arg, Detail: detail}
	if t != nil {
		e.TaskID, e.TaskName = t.id, t.name
	}
	if s != nil {
		e.PromiseID, e.PromiseLabel = s.id, s.label
	}
	if t == nil {
		r.events.c.Emit(e)
		return
	}
	r.stage(t, e)
}

// stage reserves e's sequence number and appends it to the buffer of
// into, the task on whose goroutine it runs.
func (r *Runtime) stage(into *Task, e Event) {
	e.Seq = r.events.c.NextSeq()
	if into.stage == nil {
		into.stage = make([]Event, 0, stageCap)
	}
	into.stage = append(into.stage, e)
	if len(into.stage) == stageCap {
		r.flushStage(into)
	}
}

// flushStage delivers the task's staged events to the collector and
// resets the buffer, keeping its capacity. It is the pre-block hook too:
// a task about to park (or terminate) must not sit on undelivered
// events, both so mid-run snapshots see everything a parked task did and
// so a trace cut short at a hang still contains the block record of
// every blocked task. Entries are not zeroed on the hot path — the array
// pins at most stageCap events' strings until they are overwritten or
// the task is collected.
func (r *Runtime) flushStage(t *Task) {
	if r.events == nil || len(t.stage) == 0 {
		return
	}
	r.events.c.EmitStamped(t.stage)
	t.stage = t.stage[:0]
}

// logAlarm records an alarm event annotated with its class and the
// blamed task/promise, so the offline verifier (cmd/tracecheck) can
// re-check it structurally instead of parsing the message.
func (r *Runtime) logAlarm(err error) {
	e := Event{Kind: EvAlarm, Detail: err.Error()}
	switch x := err.(type) {
	case *DeadlockError:
		// The reported cycle length rides in the Arg's upper bits so the
		// offline verifier can compare it against its own walk without
		// parsing the message.
		e.Arg = trace.AlarmArg(trace.AlarmDeadlock, uint64(len(x.Cycle)))
		if len(x.Cycle) > 0 {
			e.TaskID, e.PromiseID = x.Cycle[0].TaskID, x.Cycle[0].PromiseID
		}
	case *OmittedSetError:
		e.Arg, e.TaskID = trace.AlarmArg(trace.AlarmOmittedSet, 0), x.TaskID
	case *OwnershipError:
		e.Arg, e.TaskID, e.PromiseID = trace.AlarmArg(trace.AlarmOwnership, 0), x.TaskID, x.PromiseID
	case *DoubleSetError:
		e.Arg, e.TaskID, e.PromiseID = trace.AlarmArg(trace.AlarmDoubleSet, 0), x.TaskID, x.PromiseID
	default:
		e.Arg = trace.AlarmArg(trace.AlarmOther, 0)
	}
	r.events.c.Emit(e)
}
