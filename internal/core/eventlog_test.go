package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func kindsOf(evs []Event) map[EventKind]int {
	m := map[EventKind]int{}
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

func TestEventLogDisabledByDefault(t *testing.T) {
	rt := NewRuntime()
	if err := run(t, rt, func(tk *Task) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rt.Events() != nil || rt.EventLog() != "" {
		t.Fatal("event log active without WithEventLog")
	}
}

func TestEventLogCapturesLifecycle(t *testing.T) {
	rt := NewRuntime(WithEventLog(0))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "traced")
		if _, e := tk.AsyncNamed("child", func(c *Task) error {
			return p.Set(c, 1)
		}, p); e != nil {
			return e
		}
		_, e := p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	k := kindsOf(rt.Events())
	if k[EvNewPromise] != 1 {
		t.Fatalf("new events = %d", k[EvNewPromise])
	}
	if k[EvMove] != 1 {
		t.Fatalf("move events = %d", k[EvMove])
	}
	if k[EvSet] != 1 {
		t.Fatalf("set events = %d", k[EvSet])
	}
	if k[EvTaskStart] != 2 || k[EvTaskEnd] != 2 {
		t.Fatalf("task events = %d/%d", k[EvTaskStart], k[EvTaskEnd])
	}
	// The get may or may not block (fast path) depending on timing, so
	// EvBlock/EvWake are 0 or 1 but must agree.
	if k[EvBlock] != k[EvWake] {
		t.Fatalf("block/wake imbalance: %d/%d", k[EvBlock], k[EvWake])
	}
	log := rt.EventLog()
	for _, want := range []string{"move", "traced", "to child", "set"} {
		if !strings.Contains(log, want) {
			t.Fatalf("log missing %q:\n%s", want, log)
		}
	}
}

func TestEventLogSequenceIsMonotone(t *testing.T) {
	rt := NewRuntime(WithEventLog(0))
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 20; i++ {
			p := NewPromise[int](tk)
			if e := p.Set(tk, i); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := rt.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not monotone at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventLogRingBounds(t *testing.T) {
	rt := NewRuntime(WithEventLog(8))
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 50; i++ {
			p := NewPromise[int](tk)
			if e := p.Set(tk, i); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := rt.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// The retained suffix must be the most recent events: the run-end
	// marker, preceded by the root's task-end.
	if last := evs[len(evs)-1]; last.Kind != trace.KindRunEnd {
		t.Fatalf("last retained event = %v, want run-end", last.Kind)
	}
	if prev := evs[len(evs)-2]; prev.Kind != EvTaskEnd {
		t.Fatalf("second-to-last retained event = %v, want task-end", prev.Kind)
	}
}

func TestEventLogRecordsAlarms(t *testing.T) {
	rt := NewRuntime(WithEventLog(0))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "cyc")
		if _, e := p.Get(tk); e == nil {
			return fmt.Errorf("no alarm")
		}
		return p.Set(tk, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	k := kindsOf(rt.Events())
	if k[EvAlarm] == 0 {
		t.Fatal("alarm not logged")
	}
	if !strings.Contains(rt.EventLog(), "deadlock") {
		t.Fatalf("alarm detail missing:\n%s", rt.EventLog())
	}
}

func TestEventLogSetError(t *testing.T) {
	rt := NewRuntime(WithEventLog(0))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "bad")
		return p.SetError(tk, fmt.Errorf("boom"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if k := kindsOf(rt.Events()); k[EvSetError] != 1 {
		t.Fatalf("set-error events = %d", k[EvSetError])
	}
	if !strings.Contains(rt.EventLog(), "boom") {
		t.Fatal("error detail missing")
	}
}

// TestEventLogLastCapacityWins: repeated WithEventLog options behave
// like every other runtime option — the last capacity wins.
func TestEventLogLastCapacityWins(t *testing.T) {
	rt := NewRuntime(WithEventLog(4), WithEventLog(8))
	err := run(t, rt, func(tk *Task) error {
		for i := 0; i < 50; i++ {
			p := NewPromise[int](tk)
			if e := p.Set(tk, i); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Events()); got != 8 {
		t.Fatalf("retained %d events, want the later option's 8", got)
	}
}

// TestEventLogNeverDrops asserts that concurrent emission from many
// tasks loses nothing: zero events dropped and no gap record.
func TestEventLogNeverDrops(t *testing.T) {
	rt := NewRuntime(WithEventLog(0))
	const workers, perWorker = 8, 1200
	err := run(t, rt, func(tk *Task) error {
		ps := make([]*Promise[int], workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			ps[w] = NewPromise[int](tk)
			w := w
			wg.Add(1)
			if _, e := tk.Async(func(c *Task) error {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					p := NewPromise[int](c)
					if e := p.Set(c, i); e != nil {
						return e
					}
					if _, e := p.Get(c); e != nil {
						return e
					}
				}
				return ps[w].Set(c, w)
			}, ps[w]); e != nil {
				wg.Done()
				return e
			}
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := rt.Stats().EventsDropped; d != 0 {
		t.Fatalf("EventsDropped = %d, want 0", d)
	}
	// No gap records may appear in a drop-free stream.
	for _, e := range rt.Events() {
		if e.Kind == trace.KindGap {
			t.Fatalf("gap record in a drop-free trace: %v", e)
		}
	}
}

// TestTraceToRoundTrip streams a run through the binary format and
// checks the decoded trace verifies offline: the same machinery
// cmd/tracecheck uses, wired end-to-end from a live runtime.
func TestTraceToRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rt := NewRuntime(TraceTo(trace.NewWriterSink(&buf)))
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "wire")
		if _, e := tk.AsyncNamed("producer", func(c *Task) error {
			return p.Set(c, 7)
		}, p); e != nil {
			return e
		}
		_, e := p.Get(tk)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TraceClose(); err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Verify(evs)
	if !rep.Clean() {
		t.Fatalf("offline verifier rejected a clean run: %+v", rep)
	}
	if rep.Mode != "full" {
		t.Fatalf("mode meta = %q", rep.Mode)
	}
	// Events() stays nil without WithEventLog even when TraceTo is set.
	if rt.Events() != nil {
		t.Fatal("Events() non-nil without WithEventLog")
	}
}

// TestTraceCapturesDeadlockOffline: the recorded trace of a deadlocking
// run must re-verify offline — exactly one deadlock alarm whose cycle
// closes in the reconstructed waits-for graph.
func TestTraceCapturesDeadlockOffline(t *testing.T) {
	mem := trace.NewMemSink(0)
	rt := NewRuntime(TraceTo(mem))
	err := rt.Run(func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "p")
		q := NewPromiseNamed[int](tk, "q")
		if _, e := tk.AsyncNamed("t2", func(t2 *Task) error {
			if _, e := p.Get(t2); e != nil {
				return e
			}
			return q.Set(t2, 0)
		}, q); e != nil {
			return e
		}
		if _, e := q.Get(tk); e != nil {
			return e
		}
		return p.Set(tk, 0)
	})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if err := rt.TraceClose(); err != nil {
		t.Fatal(err)
	}
	rep := trace.Verify(mem.Snapshot())
	if !rep.Consistent() {
		t.Fatalf("deadlock trace inconsistent: %v", rep.Problems)
	}
	if rep.Deadlocks != 1 {
		t.Fatalf("deadlock alarms = %d, want 1", rep.Deadlocks)
	}
	for _, a := range rep.Alarms {
		if a.Class == trace.AlarmDeadlock && (!a.CycleVerified || a.CycleLen != 2) {
			t.Fatalf("cycle not re-verified offline: %+v", a)
		}
	}
	if d := rt.Stats().EventsDropped; d != 0 {
		t.Fatalf("EventsDropped = %d, want 0", d)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvNewPromise, EvMove, EvSet, EvSetError, EvBlock, EvWake, EvTaskStart, EvTaskEnd, EvAlarm,
		trace.KindGap, trace.KindMeta, trace.KindRunEnd, EventKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
}
