package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// cleanEvents records a small clean run: the root moves a promise to a
// child, the child sets it, and the root gets it.
func cleanEvents(t *testing.T) []trace.Event {
	t.Helper()
	mem := trace.NewMemSink(1 << 10)
	rt := core.NewRuntime(core.WithMode(core.Full), core.TraceTo(mem))
	err := rt.Run(func(root *core.Task) error {
		p := core.NewPromise[int](root)
		if _, err := root.Async(func(c *core.Task) error { return p.Set(c, 1) }, p); err != nil {
			return err
		}
		_, err := p.Get(root)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TraceClose(); err != nil {
		t.Fatal(err)
	}
	return mem.Snapshot()
}

// gapped re-emits evs into a MemSink that keeps only the last 4, so the
// window it holds leads with a gap record.
func gapped(t *testing.T, evs []trace.Event) []trace.Event {
	t.Helper()
	mem := trace.NewMemSink(4)
	c := trace.New(mem)
	for _, e := range evs {
		e.Seq = 0
		c.Emit(e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return mem.Snapshot()
}

// writeTrace writes evs as a binary trace file and returns its path.
func writeTrace(t *testing.T, name string, evs []trace.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, trace.AppendWindow(nil, evs, math.MaxInt), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitStatus: a consistent trace passes, a cut one exits 3 unless
// -expect incomplete accepts it, and a broken one exits 1, also when
// it shares the command line with a cut one.
func TestExitStatus(t *testing.T) {
	evs := cleanEvents(t)
	clean := writeTrace(t, "clean.trace", evs)
	cut := writeTrace(t, "cut.trace", gapped(t, evs))
	// A deadlock alarm no cycle in the replayed graph supports.
	bogus := trace.Event{Seq: evs[len(evs)-1].Seq + 1, Kind: trace.KindAlarm,
		Arg: trace.AlarmArg(trace.AlarmDeadlock, 2), TaskID: 1, PromiseID: 1}
	invalid := writeTrace(t, "invalid.trace", append(evs[:len(evs):len(evs)], bogus))

	for _, tc := range []struct {
		args    []string
		status  int
		verdict string
	}{
		{[]string{clean}, 0, "verdict=CLEAN"},
		{[]string{"-expect", "clean", clean}, 0, "verdict=CLEAN"},
		{[]string{"-expect", "incomplete", clean}, exitFailed, "EXPECTATION FAILED"},
		{[]string{cut}, exitIncomplete, "verdict=INCOMPLETE"},
		{[]string{"-expect", "clean", cut}, exitIncomplete, "verdict=INCOMPLETE"},
		{[]string{"-expect", "incomplete", cut}, 0, "verdict=INCOMPLETE"},
		{[]string{invalid}, exitFailed, "verdict=INVALID"},
		{[]string{cut, invalid}, exitFailed, "verdict=INVALID"},
		{[]string{clean, cut}, exitIncomplete, "verdict=INCOMPLETE"},
		{[]string{"-expect", "bogus", clean}, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		status := run(tc.args, strings.NewReader(""), &stdout, &stderr)
		if status != tc.status || !strings.Contains(stdout.String(), tc.verdict) {
			t.Errorf("tracecheck %q: exit %d, want %d, output lacks %q:\n%s%s",
				tc.args, status, tc.status, tc.verdict, stdout.String(), stderr.String())
		}
	}
}

// TestStdin reads a trace from "-".
func TestStdin(t *testing.T) {
	var stdout bytes.Buffer
	data := trace.AppendWindow(nil, cleanEvents(t), math.MaxInt)
	if status := run([]string{"-expect", "clean", "-"}, bytes.NewReader(data), &stdout, &stdout); status != 0 {
		t.Fatalf("exit %d:\n%s", status, stdout.String())
	}
}
