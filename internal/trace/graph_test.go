package trace

import (
	"strings"
	"testing"
)

// named is ev with the diagnostic names the runtime records.
func named(seq uint64, k Kind, task uint64, taskName string, prom uint64, label string, arg uint64, detail string) Event {
	e := ev(seq, k, task, prom, arg, detail)
	e.TaskName, e.PromiseLabel = taskName, label
	return e
}

// listing1 is the stream the runtime records for the paper's Listing 1
// up to the hang: main (task 1) makes p and q, spawns the bystander t1
// (task 2) and t2 (task 3, which takes q), then main waits on q and t2
// on p. Under mode=unverified there is no move record. Its meta record
// is in the older form, with a tracking= key the verifier ignores.
func listing1(mode string) []Event {
	evs := []Event{
		ev(1, KindMeta, 0, 0, 0, "mode="+mode+" detector=lockfree tracking=list"),
		named(2, KindTaskStart, 1, "main", 0, "", 0, ""),
		named(3, KindNewPromise, 1, "main", 1, "p", 0, ""),
		named(4, KindNewPromise, 1, "main", 2, "q", 0, ""),
		named(5, KindTaskStart, 2, "t1", 0, "", 1, ""),
		named(6, KindMove, 1, "main", 2, "q", 3, "to t2"),
		named(7, KindTaskStart, 3, "t2", 0, "", 1, ""),
		named(8, KindBlock, 1, "main", 2, "q", 0, ""),
		named(9, KindBlock, 3, "t2", 1, "p", 0, ""),
	}
	if mode == "unverified" {
		evs = append(evs[:5], evs[6:]...)
		for i := range evs {
			evs[i].Seq = uint64(i + 1)
		}
	}
	return evs
}

func TestGraphDOTListing1(t *testing.T) {
	const boxesAndWaits = `digraph promises {
  rankdir=LR;
  "main" [shape=box];
  "t1" [shape=box];
  "t2" [shape=box];
  "p" [shape=ellipse];
  "q" [shape=ellipse];
  "main" -> "q";
  "t2" -> "p";
`
	for _, tc := range []struct {
		mode   string
		events int
		want   string
	}{
		{"ownership", 9, boxesAndWaits + `  "p" -> "main" [style=dashed];
  "q" -> "t2" [style=dashed];
}
`},
		{"unverified", 8, boxesAndWaits + "}\n"},
	} {
		evs := listing1(tc.mode)
		if len(evs) != tc.events {
			t.Fatalf("%s: %d events, want %d", tc.mode, len(evs), tc.events)
		}
		g := NewGraph(evs)
		if g.Partial() {
			t.Errorf("%s: complete stream replayed as partial", tc.mode)
		}
		if got := g.DOT(); got != tc.want {
			t.Errorf("%s DOT:\n%s\nwant:\n%s", tc.mode, got, tc.want)
		}
	}
}

// TestGraphDOTDropsFinishedState: fulfilled promises and ended tasks
// leave the graph, so a finished run draws nothing but its frame.
func TestGraphDOTDropsFinishedState(t *testing.T) {
	if got, want := NewGraph(cleanRun()).DOT(), "digraph promises {\n  rankdir=LR;\n}\n"; got != want {
		t.Fatalf("finished run DOT:\n%s\nwant:\n%s", got, want)
	}
}

// TestGraphTrimmedWindowIsPartial records Listing 1 into a MemSink that
// holds only its last 4 events: the window is marked partial and says
// how much is missing, the waits and the move it still holds are drawn,
// and Verify skips replay checks instead of reporting bogus problems.
func TestGraphTrimmedWindowIsPartial(t *testing.T) {
	mem := NewMemSink(4)
	c := New(mem)
	for _, e := range listing1("ownership") {
		e.Seq = 0
		c.Emit(e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Snapshot()
	g := NewGraph(evs)
	if !g.Partial() {
		t.Fatal("trimmed window not marked partial")
	}
	dot := g.DOT()
	for _, want := range []string{
		`label="partial window: 5 earlier event(s) missing";`,
		`"main" -> "q";`, `"t2" -> "p";`, `"q" -> "t2" [style=dashed];`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT lacks %s:\n%s", want, dot)
		}
	}
	rep := Verify(evs)
	if rep.Complete || rep.Dropped != 5 || len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "replay checks skipped") {
		t.Fatalf("trimmed window verdict: %s %q", rep.Summary(), rep.Problems)
	}
}
