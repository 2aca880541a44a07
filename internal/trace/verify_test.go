package trace

import (
	"strings"
	"testing"
)

// ev is a terse event constructor for verifier tests.
func ev(seq uint64, k Kind, task, prom, arg uint64, detail string) Event {
	return Event{Seq: seq, Kind: k, TaskID: task, PromiseID: prom, Arg: arg, Detail: detail}
}

const metaFull = "mode=full detector=lockfree"

// cleanRun is a minimal well-formed trace: root spawns a child, moves a
// promise to it, the child sets, the root blocks and wakes.
func cleanRun() []Event {
	return []Event{
		ev(1, KindMeta, 0, 0, 0, metaFull),
		ev(2, KindTaskStart, 1, 0, 0, ""),
		ev(3, KindNewPromise, 1, 1, 0, ""),
		ev(4, KindMove, 1, 1, 2, "to child"),
		ev(5, KindTaskStart, 2, 0, 1, ""),
		ev(6, KindBlock, 1, 1, 0, ""),
		ev(7, KindSet, 2, 1, 0, ""),
		ev(8, KindWake, 1, 1, 0, ""),
		ev(9, KindTaskEnd, 2, 0, 0, ""),
		ev(10, KindTaskEnd, 1, 0, 0, ""),
		ev(11, KindRunEnd, 0, 0, 0, ""),
	}
}

func TestVerifyCleanRun(t *testing.T) {
	rep := Verify(cleanRun())
	if !rep.Clean() {
		t.Fatalf("clean run not clean: %+v", rep)
	}
	if rep.Mode != "full" || rep.Detector != "lockfree" {
		t.Fatalf("meta not parsed: %+v", rep)
	}
	if !rep.Terminated || !rep.Complete {
		t.Fatalf("termination/completeness: %+v", rep)
	}
}

func TestVerifyCatchesLostWake(t *testing.T) {
	evs := cleanRun()
	// Wake before any fulfilment: drop the Set.
	evs[6] = ev(7, KindMeta, 0, 0, 0, "filler")
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatalf("wake without fulfilment accepted: %+v", rep)
	}
}

func TestVerifyCatchesOwnershipViolationInReplay(t *testing.T) {
	evs := cleanRun()
	// The set now comes from task 9, which never owned promise 1.
	evs[6] = ev(7, KindSet, 9, 1, 0, "")
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatal("set by non-owner accepted")
	}
}

func TestVerifyCatchesHungTermination(t *testing.T) {
	evs := []Event{
		ev(1, KindMeta, 0, 0, 0, metaFull),
		ev(2, KindTaskStart, 1, 0, 0, ""),
		ev(3, KindNewPromise, 1, 1, 0, ""),
		ev(4, KindBlock, 1, 1, 0, ""),
		ev(5, KindRunEnd, 0, 0, 0, ""),
	}
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatal("terminated run with a still-blocked task accepted")
	}
	// Without the RunEnd record the same trace is a legitimately
	// truncated (hung or live) run.
	rep = Verify(evs[:4])
	if !rep.Consistent() {
		t.Fatalf("truncated run flagged: %v", rep.Problems)
	}
	if rep.Terminated {
		t.Fatal("truncated run reported terminated")
	}
}

// deadlockRun is a 2-cycle: task 1 owns p1 and awaits p2, task 2 owns
// p2 and awaits p1; task 2's block closes the cycle and alarms. The
// unwinding mirrors the runtime: each failing task is blamed for its
// leaked promise, the cascade completes it, the peer wakes.
func deadlockRun() []Event {
	return []Event{
		ev(1, KindMeta, 0, 0, 0, metaFull),
		ev(2, KindTaskStart, 1, 0, 0, ""),
		ev(3, KindNewPromise, 1, 1, 0, ""),
		ev(4, KindNewPromise, 1, 2, 0, ""),
		ev(5, KindMove, 1, 2, 2, "to t2"),
		ev(6, KindTaskStart, 2, 0, 1, ""),
		ev(7, KindBlock, 1, 2, 0, ""),
		ev(8, KindBlock, 2, 1, 0, ""),
		ev(9, KindAlarm, 2, 1, AlarmArg(AlarmDeadlock, 2), "core: deadlock cycle of 2 task(s): ..."),
		ev(10, KindWake, 2, 1, 0, "alarm"),
		ev(11, KindAlarm, 2, 0, AlarmOmittedSet, "core: omitted set: ..."),
		ev(12, KindSetError, 2, 2, 0, "cascade"),
		ev(13, KindTaskEnd, 2, 0, 0, "deadlock"),
		ev(14, KindWake, 1, 2, 0, ""),
		ev(15, KindAlarm, 1, 0, AlarmOmittedSet, "core: omitted set: ..."),
		ev(16, KindSetError, 1, 1, 0, "cascade"),
		ev(17, KindTaskEnd, 1, 0, 0, "broken promise"),
		ev(18, KindRunEnd, 0, 0, 2, ""),
	}
}

func TestVerifyDeadlockCycle(t *testing.T) {
	rep := Verify(deadlockRun())
	if !rep.Consistent() {
		t.Fatalf("valid deadlock trace flagged: %v", rep.Problems)
	}
	if rep.Deadlocks != 1 || len(rep.Alarms) != 3 {
		t.Fatalf("alarms = %+v", rep.Alarms)
	}
	dl := rep.Alarms[0]
	if dl.Class != AlarmDeadlock || !dl.CycleVerified || dl.CycleLen != 2 {
		t.Fatalf("deadlock alarm not verified: %+v", dl)
	}
}

func TestVerifyRejectsPhantomDeadlock(t *testing.T) {
	evs := deadlockRun()
	// Break the cycle: task 1 never blocked on p2.
	evs[6] = ev(7, KindMeta, 0, 0, 0, "filler")
	// (Task 1's later wake now dangles too; both must be flagged.)
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatal("alarm with no cycle in the reconstructed graph accepted")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "cycle broken") || strings.Contains(p, "not blocked") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cycle-specific problem reported: %v", rep.Problems)
	}
}

func TestVerifyCycleLengthMismatch(t *testing.T) {
	evs := deadlockRun()
	// The detector's recorded length (Arg upper bits) disagrees with the
	// reconstructable 2-cycle.
	evs[8] = ev(9, KindAlarm, 2, 1, AlarmArg(AlarmDeadlock, 5), "core: deadlock cycle of 5 task(s): ...")
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatal("cycle-length mismatch accepted")
	}
}

func TestVerifyOmittedSetOrdering(t *testing.T) {
	// Omitted-set blame arriving after the blamed task's end record.
	evs := []Event{
		ev(1, KindMeta, 0, 0, 0, metaFull),
		ev(2, KindTaskStart, 1, 0, 0, ""),
		ev(3, KindNewPromise, 1, 1, 0, ""),
		ev(4, KindSetError, 1, 1, 0, "cascade"),
		ev(5, KindTaskEnd, 1, 0, 0, ""),
		ev(6, KindAlarm, 1, 0, AlarmOmittedSet, "core: omitted set: ..."),
		ev(7, KindRunEnd, 0, 0, 1, ""),
	}
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatal("omitted-set alarm after task end accepted")
	}
}

func TestVerifyGapMakesBestEffort(t *testing.T) {
	evs := cleanRun()
	evs = append(evs, ev(12, KindGap, 0, 0, 37, "37 events dropped"))
	rep := Verify(evs)
	if rep.Complete {
		t.Fatal("gap not noticed")
	}
	if rep.Dropped != 37 {
		t.Fatalf("dropped = %d", rep.Dropped)
	}
	if rep.Clean() {
		t.Fatal("incomplete trace reported clean")
	}
	if s := rep.Summary(); !strings.Contains(s, "verdict=INCOMPLETE (37 event(s) missing") {
		t.Fatalf("summary %q, want an INCOMPLETE verdict", s)
	}
}

func TestVerifyUnverifiedModeSkipsOwnership(t *testing.T) {
	// In unverified mode promises have no owners and no moves; a set by
	// a "non-creator" is fine, but lifecycle checks still apply.
	evs := []Event{
		ev(1, KindMeta, 0, 0, 0, "mode=unverified detector=lockfree"),
		ev(2, KindTaskStart, 1, 0, 0, ""),
		ev(3, KindNewPromise, 1, 1, 0, ""),
		ev(4, KindTaskStart, 2, 0, 1, ""),
		ev(5, KindSet, 2, 1, 0, ""),
		ev(6, KindTaskEnd, 2, 0, 0, ""),
		ev(7, KindTaskEnd, 1, 0, 0, ""),
		ev(8, KindRunEnd, 0, 0, 0, ""),
	}
	rep := Verify(evs)
	if !rep.Clean() {
		t.Fatalf("unverified-mode trace flagged: %v", rep.Problems)
	}
}

func TestVerifyAcceptsCancelWake(t *testing.T) {
	// A canceled wait closes its block with a "cancel" wake: the promise
	// is legitimately unfulfilled at the wake, and may be fulfilled later
	// with nobody blocked on it. The whole run still certifies clean.
	evs := []Event{
		ev(1, KindMeta, 0, 0, 0, metaFull),
		ev(2, KindTaskStart, 1, 0, 0, ""),
		ev(3, KindNewPromise, 1, 1, 0, ""),
		ev(4, KindMove, 1, 1, 2, "to child"),
		ev(5, KindTaskStart, 2, 0, 1, ""),
		ev(6, KindBlock, 1, 1, 0, ""),
		ev(7, KindWake, 1, 1, 0, "cancel"), // the waiter's ctx ended first
		ev(8, KindTaskEnd, 1, 0, 0, ""),
		ev(9, KindSet, 2, 1, 0, ""), // the producer delivers for nobody
		ev(10, KindTaskEnd, 2, 0, 0, ""),
		ev(11, KindRunEnd, 0, 0, 0, ""),
	}
	rep := Verify(evs)
	if !rep.Clean() {
		t.Fatalf("canceled-wait run not clean: %+v", rep)
	}
}

func TestVerifyRejectsCancelWakeWithoutBlock(t *testing.T) {
	evs := cleanRun()
	// Turn the matched wake into a cancel wake on a promise the task
	// never blocked on: still a protocol violation.
	evs[7] = ev(8, KindWake, 1, 9, 0, "cancel")
	rep := Verify(evs)
	if rep.Consistent() {
		t.Fatalf("cancel wake without a matching block accepted: %+v", rep)
	}
}
