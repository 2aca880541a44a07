package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func kindsOf(evs []Event) map[EventKind]int {
	m := map[EventKind]int{}
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

// memTraced builds a runtime with opts whose events stage into a
// MemSink retaining limit events (0 = all).
func memTraced(limit int, opts ...Option) (*Runtime, *trace.MemSink) {
	mem := trace.NewMemSink(limit)
	return NewRuntime(append(opts, TraceTo(mem))...), mem
}

// logText renders evs one per line, as Event.String does.
func logText(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestEventLogDisabledByDefault(t *testing.T) {
	rt := NewRuntime()
	if err := run(t, rt, func(tk *Task) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rt.events != nil {
		t.Fatal("tracer active without TraceTo")
	}
}

func TestEventLogCapturesLifecycle(t *testing.T) {
	rt, mem := memTraced(0)
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
	k := kindsOf(mem.Snapshot())
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
	log := logText(mem.Snapshot())
	for _, want := range []string{"move", "traced", "to child", "set"} {
		if !strings.Contains(log, want) {
			t.Fatalf("log missing %q:\n%s", want, log)
		}
	}
}

func TestEventLogSequenceIsMonotone(t *testing.T) {
	rt, mem := memTraced(0)
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
	evs := mem.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not monotone at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventLogRingBounds(t *testing.T) {
	rt, mem := memTraced(8)
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
	evs := mem.Snapshot()
	if len(evs) != 1+8 {
		t.Fatalf("retained %d events, want a gap record and 8", len(evs))
	}
	// The window leads with one gap record counting the trimmed events:
	// Seq numbers run 1..N with no holes, so N-8 were trimmed.
	last := evs[len(evs)-1]
	if g := evs[0]; g.Kind != trace.KindGap || g.Arg != last.Seq-8 {
		t.Fatalf("window leads with %v (arg %d), want a gap of %d", g.Kind, g.Arg, last.Seq-8)
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
	rt, mem := memTraced(0)
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
	k := kindsOf(mem.Snapshot())
	if k[EvAlarm] == 0 {
		t.Fatal("alarm not logged")
	}
	if !strings.Contains(logText(mem.Snapshot()), "deadlock") {
		t.Fatalf("alarm detail missing:\n%s", logText(mem.Snapshot()))
	}
}

func TestEventLogSetError(t *testing.T) {
	rt, mem := memTraced(0)
	err := run(t, rt, func(tk *Task) error {
		p := NewPromiseNamed[int](tk, "bad")
		return p.SetError(tk, fmt.Errorf("boom"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if k := kindsOf(mem.Snapshot()); k[EvSetError] != 1 {
		t.Fatalf("set-error events = %d", k[EvSetError])
	}
	if !strings.Contains(logText(mem.Snapshot()), "boom") {
		t.Fatal("error detail missing")
	}
}

// TestEventGraphShowsWaitingEdge polls the graph replayed from the
// event log while a task is blocked, in Ownership mode: the waits-for
// edge comes from the block record, so it shows in every mode that
// records one, not only where a detector publishes it.
func TestEventGraphShowsWaitingEdge(t *testing.T) {
	rt, mem := memTraced(0, WithMode(Ownership))
	waitStarted := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		<-waitStarted
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if strings.Contains(trace.NewGraph(mem.Snapshot()).DOT(), `"waiter" -> "gate";`) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("waits-for edge never appeared:\n%s", trace.NewGraph(mem.Snapshot()).DOT())
	}()
	err := run(t, rt, func(tk *Task) error {
		gate := NewPromiseNamed[int](tk, "gate")
		if _, e := tk.AsyncNamed("waiter", func(c *Task) error {
			close(waitStarted)
			_, e := gate.Get(c)
			return e
		}); e != nil {
			return e
		}
		<-checked
		return gate.Set(tk, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// midRunDOT spawns a task that polls the graph replayed from mem until
// it contains every line of want, then fulfils gate, which the caller
// moves to it and then awaits: tk's events are flushed while it is
// parked there. It returns the last DOT it saw.
func midRunDOT(tk *Task, mem *trace.MemSink, gate *Promise[int], want ...string) (*string, error) {
	var dot string
	_, err := tk.AsyncNamed("observer", func(c *Task) error {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			dot = trace.NewGraph(mem.Snapshot()).DOT()
			if containsAll(dot, want) {
				break
			}
		}
		return gate.Set(c, 1)
	}, gate)
	return &dot, err
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestEventGraphShowsOwnedPromise: mid-run, while the root is parked on
// a promise, the replayed graph draws the root's unfulfilled promise as
// owned by it; once the run ends, no task or promise is left in it.
func TestEventGraphShowsOwnedPromise(t *testing.T) {
	rt, mem := memTraced(0)
	want := []string{`"main" [shape=box];`, `"held" -> "main" [style=dashed];`, `"main" -> "gate";`}
	var mid *string
	err := run(t, rt, func(tk *Task) error {
		held := NewPromiseNamed[int](tk, "held")
		gate := NewPromiseNamed[int](tk, "gate")
		var err error
		if mid, err = midRunDOT(tk, mem, gate, want...); err != nil {
			return err
		}
		if _, err := gate.Get(tk); err != nil {
			return err
		}
		return held.Set(tk, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(*mid, want) {
		t.Errorf("mid-run DOT lacks one of %q:\n%s", want, *mid)
	}
	if end, want := trace.NewGraph(mem.Snapshot()).DOT(), "digraph promises {\n  rankdir=LR;\n}\n"; end != want {
		t.Errorf("DOT after the run:\n%s\nwant:\n%s", end, want)
	}
}

// TestEventGraphShowsChannelParkedBystander is Listing 1's bystander: a
// task parked on a Go channel from its start never flushes its own
// buffer, but its start record is staged by its spawner, so the mid-run
// graph draws it once the spawner parks on a promise.
func TestEventGraphShowsChannelParkedBystander(t *testing.T) {
	rt, mem := memTraced(0, WithMode(Ownership))
	want := []string{`"bystander" [shape=box];`, `"main" -> "gate";`}
	var mid *string
	stop := make(chan struct{})
	err := run(t, rt, func(tk *Task) error {
		if _, err := tk.AsyncNamed("bystander", func(*Task) error {
			<-stop
			return nil
		}); err != nil {
			return err
		}
		gate := NewPromiseNamed[int](tk, "gate")
		var err error
		if mid, err = midRunDOT(tk, mem, gate, want...); err != nil {
			return err
		}
		_, err = gate.Get(tk)
		close(stop)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(*mid, want) {
		t.Errorf("mid-run DOT lacks one of %q:\n%s", want, *mid)
	}
}

// TestEventLogNeverDrops asserts that concurrent emission from many
// tasks loses nothing: zero events dropped, no gap record, and every
// sequence number present. The window holds the whole run (about 20k
// events), so the sink trims nothing either.
func TestEventLogNeverDrops(t *testing.T) {
	rt, mem := memTraced(1 << 16)
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
	evs := mem.Snapshot()
	for i, e := range evs {
		if e.Kind == trace.KindGap {
			t.Fatalf("gap record in a drop-free trace: %v", e)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d: the stream has a hole", i, e.Seq)
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
