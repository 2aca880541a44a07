package trace

import (
	"fmt"
	"strings"
)

// Alarm is one KindAlarm record as seen by the verifier, annotated with
// the outcome of its independent re-check.
type Alarm struct {
	Seq       uint64
	Class     uint64 // AlarmDeadlock, AlarmOmittedSet, ...
	TaskID    uint64
	PromiseID uint64
	Detail    string
	// CycleLen is the length of the cycle the verifier reconstructed in
	// its own waits-for graph at the alarm point (deadlock alarms only).
	CycleLen int
	// CycleVerified reports that the reconstructed cycle closes and its
	// length matches the one the in-process detector reported.
	CycleVerified bool
}

// Report is the verifier's verdict over one trace.
type Report struct {
	Events     int
	Dropped    uint64 // events missing from the window, from its gap records
	Complete   bool   // no gap records: the trace holds every emitted event
	Terminated bool   // a KindRunEnd record was seen: the run finished
	TaskErrors uint64 // from KindRunEnd's Arg
	Mode       string // from the runtime-config meta record, "" if absent
	Detector   string
	Tracking   string
	Meta       []string // raw Detail of every meta record
	Alarms     []Alarm
	Deadlocks  int // alarms of class AlarmDeadlock
	Problems   []string
}

// Clean reports a verified clean run: terminated, complete, alarm-free,
// and free of replay inconsistencies.
func (r *Report) Clean() bool {
	return r.Terminated && r.Complete && len(r.Alarms) == 0 && len(r.Problems) == 0
}

// Consistent reports that replay found no inconsistencies (alarms, if
// any, all re-verified).
func (r *Report) Consistent() bool { return len(r.Problems) == 0 }

// Summary renders the verdict as one line.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events", r.Events)
	if !r.Terminated {
		b.WriteString(", run did not terminate")
	}
	switch {
	case !r.Complete:
		// Replay past a gap is unsound, so Verify judged nothing; its one
		// problem says so. A cut window is not a broken run.
		fmt.Fprintf(&b, ", verdict=INCOMPLETE (%d event(s) missing, replay checks skipped)", r.Dropped)
	case len(r.Problems) > 0:
		fmt.Fprintf(&b, ", verdict=INVALID (%d problem(s))", len(r.Problems))
	case len(r.Alarms) == 0 && !r.Terminated:
		// Alarm-free but truncated: nothing contradicts the trace, but a
		// hung run cannot be certified clean (the deadlock may simply be
		// invisible to the recorded mode).
		b.WriteString(", verdict=INCONCLUSIVE")
	case len(r.Alarms) == 0:
		b.WriteString(", verdict=CLEAN")
	default:
		fmt.Fprintf(&b, ", verdict=ALARMED (%d alarm(s)", len(r.Alarms))
		if r.Deadlocks > 0 {
			fmt.Fprintf(&b, ", %d deadlock cycle(s) re-verified", r.Deadlocks)
		}
		b.WriteString(")")
	}
	return b.String()
}

// maxProblems bounds the report so a systematically broken trace does
// not produce an unbounded problem list.
const maxProblems = 64

// verifier is the replay state machine: the replayed Graph plus the
// state only its checks need.
type verifier struct {
	Graph
	rep Report

	fulfilled map[uint64]bool // promise -> set
	created   map[uint64]bool // promise ever seen
	// pendingOmitted marks tasks blamed by an omitted-set alarm whose
	// KindTaskEnd has not arrived yet: blame must precede the end record.
	pendingOmitted map[uint64]bool
}

// Verify replays a Seq-sorted event stream (SortBySeq is applied
// defensively) through a model of the ownership policy, reconstructs the
// waits-for graph, and independently re-checks the run: every deadlock
// alarm must correspond to a real cycle in the reconstructed graph,
// every omitted-set alarm must blame a task that still owns unfulfilled
// promises and must precede that task's end record, and a terminated run
// must have unwound completely (every task ended, nobody left blocked).
//
// Ownership and double-set alarms are recorded but only loosely checked:
// their emission races the winning Set's record by design (the alarm can
// be sequenced before the set that triggered it), so they cannot be
// strictly re-derived from the stream.
func Verify(evs []Event) *Report {
	v := &verifier{
		Graph:          newGraph(),
		fulfilled:      map[uint64]bool{},
		created:        map[uint64]bool{},
		pendingOmitted: map[uint64]bool{},
	}
	sorted := sortedCopy(evs)
	v.rep.Events = len(sorted)

	var lastSeq uint64
	for i := range sorted {
		e := &sorted[i]
		if e.Seq != 0 {
			if e.Seq <= lastSeq {
				v.problem(e, "sequence number not strictly increasing (%d after %d)", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}
		v.check(e)
		v.apply(e)
	}
	v.finish()
	return &v.rep
}

func (v *verifier) problem(e *Event, format string, args ...any) {
	if len(v.rep.Problems) >= maxProblems {
		return
	}
	where := ""
	if e != nil {
		where = fmt.Sprintf("#%d %s: ", e.Seq, e.Kind)
	}
	v.rep.Problems = append(v.rep.Problems, where+fmt.Sprintf(format, args...))
}

// check judges e against the graph as it stands before e is applied.
func (v *verifier) check(e *Event) {
	switch e.Kind {
	case KindMeta:
		v.rep.Meta = append(v.rep.Meta, e.Detail)
		v.parseMeta(e.Detail)
	case KindRunEnd:
		v.rep.Terminated = true
		v.rep.TaskErrors = e.Arg
	case KindNewPromise:
		if v.created[e.PromiseID] {
			v.problem(e, "promise %d created twice", e.PromiseID)
		}
		v.created[e.PromiseID] = true
	case KindMove:
		if !v.enforced {
			return
		}
		if e.Arg == 0 {
			v.problem(e, "move of promise %d carries no destination task", e.PromiseID)
			return
		}
		if got := v.owner[e.PromiseID]; got != e.TaskID {
			v.problem(e, "task %d moved promise %d owned by task %d", e.TaskID, e.PromiseID, got)
		}
	case KindSet, KindSetError:
		if v.fulfilled[e.PromiseID] {
			v.problem(e, "promise %d fulfilled twice", e.PromiseID)
		}
		if v.enforced && v.created[e.PromiseID] {
			if got := v.owner[e.PromiseID]; got != e.TaskID {
				v.problem(e, "task %d fulfilled promise %d owned by task %d", e.TaskID, e.PromiseID, got)
			}
		}
		v.fulfilled[e.PromiseID] = true
	case KindBlock:
		if p, ok := v.waiting[e.TaskID]; ok {
			v.problem(e, "task %d blocked on promise %d while already blocked on %d", e.TaskID, e.PromiseID, p)
		}
	case KindWake:
		if p, ok := v.waiting[e.TaskID]; !ok || p != e.PromiseID {
			v.problem(e, "task %d woke on promise %d without a matching block", e.TaskID, e.PromiseID)
			return
		}
		switch e.Detail {
		case "":
			if !v.fulfilled[e.PromiseID] {
				v.problem(e, "task %d woke on promise %d before any fulfilment", e.TaskID, e.PromiseID)
			}
		case "alarm":
			// The wait was abandoned because its verification alarmed;
			// the promise is legitimately unfulfilled.
		case "cancel":
			// The waiter's context (per-call or run scope) ended: the wait
			// was abandoned, the task is runnable again, and the promise is
			// legitimately unfulfilled — it may even be fulfilled later
			// with nobody blocked on it.
		case "timeout":
			v.problem(e, "timeout wake on a policy-checked (untimed) wait")
		}
	case KindTaskStart:
		if v.started[e.TaskID] {
			v.problem(e, "task %d started twice", e.TaskID)
		}
	case KindTaskEnd:
		if !v.started[e.TaskID] {
			v.problem(e, "task %d ended without starting", e.TaskID)
		}
		if v.ended[e.TaskID] {
			v.problem(e, "task %d ended twice", e.TaskID)
		}
		if p, ok := v.waiting[e.TaskID]; ok {
			v.problem(e, "task %d ended while blocked on promise %d", e.TaskID, p)
		}
		if v.enforced && len(v.ownedBy[e.TaskID]) > 0 && !v.pendingOmitted[e.TaskID] {
			v.problem(e, "task %d ended owning %d unfulfilled promise(s) with no omitted-set alarm",
				e.TaskID, len(v.ownedBy[e.TaskID]))
		}
		delete(v.pendingOmitted, e.TaskID)
	case KindAlarm:
		v.alarm(e)
	}
}

func (v *verifier) alarm(e *Event) {
	class, aux := SplitAlarmArg(e.Arg)
	a := Alarm{Seq: e.Seq, Class: class, TaskID: e.TaskID, PromiseID: e.PromiseID, Detail: e.Detail}
	switch class {
	case AlarmDeadlock:
		v.rep.Deadlocks++
		a.CycleLen, a.CycleVerified = v.checkCycle(e, int(aux))
	case AlarmOmittedSet:
		if v.enforced && len(v.ownedBy[e.TaskID]) == 0 {
			v.problem(e, "omitted-set alarm blames task %d, which owns nothing", e.TaskID)
		}
		if v.ended[e.TaskID] {
			v.problem(e, "omitted-set alarm for task %d arrived after its end record", e.TaskID)
		}
		v.pendingOmitted[e.TaskID] = true
	case AlarmOwnership, AlarmDoubleSet, AlarmOther:
		// Recorded, not re-derived: these alarms race the operation that
		// triggered them (see Verify's doc comment).
	default:
		v.problem(e, "alarm with unknown class %d", class)
	}
	v.rep.Alarms = append(v.rep.Alarms, a)
}

// checkCycle walks the reconstructed waits-for graph from a deadlock
// alarm's (task, promise) edge: promise -> owner -> that task's awaited
// promise -> ... and requires the walk to return to the alarming task.
// It returns the reconstructed cycle length and whether it both closes
// and matches want, the length the in-process detector recorded in the
// alarm's Arg (0 = not recorded, length check skipped).
func (v *verifier) checkCycle(e *Event, want int) (int, bool) {
	t0, p0 := e.TaskID, e.PromiseID
	if t0 == 0 || p0 == 0 {
		v.problem(e, "deadlock alarm carries no task/promise")
		return 0, false
	}
	// The alarming task published its intent before verifying, so its
	// edge is in the stream ahead of the alarm.
	if p, ok := v.waiting[t0]; !ok || p != p0 {
		v.problem(e, "deadlock alarm for task %d on promise %d, but the task is not blocked there", t0, p0)
		return 0, false
	}
	const maxHops = 1 << 20
	hops := 1
	cur := p0
	closed := false
	for hops < maxHops {
		owner := v.owner[cur]
		if owner == 0 {
			v.problem(e, "deadlock cycle broken: promise %d has no owner in the reconstructed graph", cur)
			return hops, false
		}
		if owner == t0 {
			closed = true
			break
		}
		next, ok := v.waiting[owner]
		if !ok {
			v.problem(e, "deadlock cycle broken: task %d (owner of promise %d) is not blocked", owner, cur)
			return hops, false
		}
		cur = next
		hops++
	}
	if !closed {
		v.problem(e, "deadlock walk did not return to task %d within %d hops", t0, maxHops)
		return hops, false
	}
	if want > 0 && want != hops {
		v.problem(e, "reconstructed cycle has %d task(s), detector reported %d", hops, want)
		return hops, false
	}
	return hops, true
}

func (v *verifier) finish() {
	v.rep.Complete = !v.Partial()
	v.rep.Dropped = v.dropped
	if !v.rep.Complete {
		// Best-effort on gappy traces: state reconstruction is unsound
		// once events are missing, so replay problems would be noise.
		v.rep.Problems = []string{
			fmt.Sprintf("trace incomplete: %d event(s) dropped; replay checks skipped", v.rep.Dropped),
		}
		return
	}
	if !v.rep.Terminated {
		return // a truncated run legitimately leaves tasks blocked
	}
	for t, p := range v.waiting {
		v.problem(nil, "run ended with task %d still blocked on promise %d", t, p)
	}
	for t := range v.started {
		if !v.ended[t] {
			v.problem(nil, "run ended but task %d never did", t)
		}
	}
	for t := range v.pendingOmitted {
		v.problem(nil, "omitted-set alarm blamed task %d but its end record never came", t)
	}
}

// parseMeta picks the runtime configuration out of a meta record of the
// form "mode=<m> detector=<d> tracking=<t>".
func (v *verifier) parseMeta(s string) {
	if val, ok := metaValue(s, "mode"); ok {
		v.rep.Mode = val
	}
	if val, ok := metaValue(s, "detector"); ok {
		v.rep.Detector = val
	}
	if val, ok := metaValue(s, "tracking"); ok {
		v.rep.Tracking = val
	}
}
