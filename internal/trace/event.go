package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a trace event. The first nine values mirror the
// runtime's policy actions and are stable (they appear in the binary
// format); new kinds are appended, never renumbered.
type Kind uint8

const (
	KindNewPromise Kind = iota
	KindMove
	KindSet
	KindSetError
	KindBlock
	KindWake
	KindTaskStart
	KindTaskEnd
	KindAlarm
	// KindGap marks a hole in the stream: Arg events were dropped. The
	// Collector drops no event before Close and never writes it; the
	// kind stays because trace files from earlier, lossy collectors may
	// contain it. A trace containing gaps is complete in order but not
	// in content; the verifier reports it as best-effort.
	KindGap
	// KindMeta is free-form stream metadata (Detail), e.g. the runtime
	// configuration ("mode=full detector=lockfree tracking=list") or a
	// recorder's program fingerprint ("randprog:{...}"). Meta records
	// written by a recorder before the run may carry Seq 0, which sorts
	// before every real event.
	KindMeta
	// KindRunEnd is emitted by Runtime.Run after every task has
	// terminated; Arg is the number of recorded task errors. Its absence
	// from a trace means the run was cut short (hung, or still going).
	KindRunEnd
)

// String returns the kind's log tag.
func (k Kind) String() string {
	switch k {
	case KindNewPromise:
		return "new"
	case KindMove:
		return "move"
	case KindSet:
		return "set"
	case KindSetError:
		return "set-error"
	case KindBlock:
		return "block"
	case KindWake:
		return "wake"
	case KindTaskStart:
		return "task-start"
	case KindTaskEnd:
		return "task-end"
	case KindAlarm:
		return "alarm"
	case KindGap:
		return "gap"
	case KindMeta:
		return "meta"
	case KindRunEnd:
		return "run-end"
	default:
		return "unknown"
	}
}

// Alarm classes carried in the low byte of a KindAlarm event's Arg, so
// the offline verifier can re-check an alarm without parsing its Detail
// string. The upper bits carry a class-specific auxiliary value — for
// AlarmDeadlock, the cycle length the detector reported, which the
// verifier compares against its own reconstructed walk.
const (
	AlarmDeadlock uint64 = iota + 1
	AlarmOmittedSet
	AlarmOwnership
	AlarmDoubleSet
	AlarmOther
)

// AlarmArg packs an alarm class and its auxiliary value into an Arg.
func AlarmArg(class, aux uint64) uint64 { return class | aux<<8 }

// SplitAlarmArg unpacks an alarm event's Arg.
func SplitAlarmArg(arg uint64) (class, aux uint64) { return arg & 0xff, arg >> 8 }

// Event is one trace record: which task did what to which promise
// (fields are zero when not applicable). Seq is a global sequence number
// assigned at emission; events with ascending Seq are in a total order
// consistent with each task's program order. Arg is kind-specific:
//
//	KindMove      destination task ID
//	KindTaskStart parent task ID (0 for the root)
//	KindAlarm     alarm class (AlarmDeadlock, ...)
//	KindGap       number of dropped events
//	KindRunEnd    number of recorded task errors
//
// TaskName and PromiseLabel are the user-given diagnostic names; they
// are empty for the default names, which render as "task-<id>" /
// "promise-<id>" on demand so the emission path never pays a Sprintf.
type Event struct {
	Seq          uint64
	Kind         Kind
	TaskID       uint64
	PromiseID    uint64
	Arg          uint64
	TaskName     string
	PromiseLabel string
	Detail       string
}

// TaskDisplayName renders the event's task name, defaulting to
// "task-<id>" when no diagnostic name was given.
func (e Event) TaskDisplayName() string {
	if e.TaskName != "" {
		return e.TaskName
	}
	if e.TaskID == 0 {
		return ""
	}
	return fmt.Sprintf("task-%d", e.TaskID)
}

// PromiseDisplayLabel renders the event's promise label, defaulting to
// "promise-<id>" when no diagnostic label was given.
func (e Event) PromiseDisplayLabel() string {
	if e.PromiseLabel != "" {
		return e.PromiseLabel
	}
	if e.PromiseID == 0 {
		return ""
	}
	return fmt.Sprintf("promise-%d", e.PromiseID)
}

// String renders the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-6d %-10s task=%s", e.Seq, e.Kind, e.TaskDisplayName())
	if lbl := e.PromiseDisplayLabel(); lbl != "" {
		fmt.Fprintf(&b, " promise=%s", lbl)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// SortBySeq stable-sorts events by sequence number in place. Collector
// batches are near-sorted (sorted within a batch; tasks flush their
// staged batches out of order), so readers call this once after decoding
// to recover the total order. Seq-0 records (recorder preambles) sort first. Already-sorted
// input — every staged batch, and any single-task stream — is detected
// with one linear scan and returned untouched.
func SortBySeq(evs []Event) {
	sorted := true
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq < evs[i-1].Seq {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
}
