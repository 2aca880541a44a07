package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Graph is the ownership / waits-for graph replayed from an event
// stream: which task owns each unfulfilled promise, which promise each
// blocked task awaits, which tasks are live, and the diagnostic names
// the stream carried. Verify judges a run against this state as it
// replays; NewGraph replays with no checks and DOT draws the result, so
// the graph a user looks at is the graph the offline verifier judges.
type Graph struct {
	owner   map[uint64]uint64          // promise -> owning task (absent = none)
	ownedBy map[uint64]map[uint64]bool // task -> unfulfilled owned promises
	waiting map[uint64]uint64          // task -> promise (policy-checked Get)
	started map[uint64]bool
	ended   map[uint64]bool
	names   map[uint64]string // task -> diagnostic name, when one was given
	labels  map[uint64]string // promise -> diagnostic label, when one was given

	enforced bool   // ownership policy active (mode != unverified)
	gaps     int    // KindGap records seen
	dropped  uint64 // events those gap records say are missing
}

func newGraph() Graph {
	return Graph{
		owner:    map[uint64]uint64{},
		ownedBy:  map[uint64]map[uint64]bool{},
		waiting:  map[uint64]uint64{},
		started:  map[uint64]bool{},
		ended:    map[uint64]bool{},
		names:    map[uint64]string{},
		labels:   map[uint64]string{},
		enforced: true, // assume policy active until a meta record says otherwise
	}
}

// NewGraph replays evs (in Seq order; SortBySeq is applied to a copy)
// into a Graph, with none of Verify's checks. A live runtime's MemSink
// window holds every event of its parked tasks (a task flushes its
// staged events before it blocks), so a graph built from it mid-run
// shows a hung program's waits.
func NewGraph(evs []Event) *Graph {
	g := newGraph()
	for _, e := range sortedCopy(evs) {
		g.apply(&e)
	}
	return &g
}

// Partial reports that the stream had gap records (a trimmed MemSink
// window, or a trace from a lossy collector): tasks, ownership and waits
// from before the gap are missing from the graph.
func (g *Graph) Partial() bool { return g.gaps > 0 }

// apply advances the graph by one event.
func (g *Graph) apply(e *Event) {
	if e.TaskName != "" {
		g.names[e.TaskID] = e.TaskName
	}
	if e.PromiseLabel != "" {
		g.labels[e.PromiseID] = e.PromiseLabel
	}
	switch e.Kind {
	case KindMeta:
		if mode, ok := metaValue(e.Detail, "mode"); ok {
			g.enforced = mode != "unverified"
		}
	case KindGap:
		g.gaps++
		g.dropped += e.Arg
	case KindNewPromise:
		if g.enforced {
			g.setOwner(e.PromiseID, e.TaskID)
		}
	case KindMove:
		if g.enforced && e.Arg != 0 {
			g.setOwner(e.PromiseID, e.Arg)
		}
	case KindSet, KindSetError:
		g.setOwner(e.PromiseID, 0)
	case KindBlock:
		g.waiting[e.TaskID] = e.PromiseID
	case KindWake:
		if p, ok := g.waiting[e.TaskID]; ok && p == e.PromiseID {
			delete(g.waiting, e.TaskID)
		}
	case KindTaskStart:
		g.started[e.TaskID] = true
	case KindTaskEnd:
		g.ended[e.TaskID] = true
	}
}

func (g *Graph) setOwner(p, t uint64) {
	if old := g.owner[p]; old != 0 {
		delete(g.ownedBy[old], p)
	}
	if t == 0 {
		delete(g.owner, p)
		return
	}
	g.owner[p] = t
	m := g.ownedBy[t]
	if m == nil {
		m = map[uint64]bool{}
		g.ownedBy[t] = m
	}
	m[p] = true
}

// liveTasks returns the tasks that have not ended — started, blocked or
// owning in the stream — in ID order. Blocked and owning tasks count
// even without a start record, which a trimmed window may have lost.
func (g *Graph) liveTasks() []uint64 {
	live := map[uint64]bool{}
	for t := range g.started {
		live[t] = true
	}
	for t := range g.waiting {
		live[t] = true
	}
	for t, ps := range g.ownedBy {
		if len(ps) > 0 {
			live[t] = true
		}
	}
	ts := make([]uint64, 0, len(live))
	for t := range live {
		if !g.ended[t] {
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	return ts
}

func (g *Graph) taskName(t uint64) string {
	return Event{TaskID: t, TaskName: g.names[t]}.TaskDisplayName()
}

func (g *Graph) promiseLabel(p uint64) string {
	return Event{PromiseID: p, PromiseLabel: g.labels[p]}.PromiseDisplayLabel()
}

// DOT renders the graph as a Graphviz digraph: a box per live task, a
// solid task -> promise edge per wait, and a dashed promise -> owner edge
// per unfulfilled promise a live task owns. Tasks appear in ID order and
// promises in label order, so equal graphs render to equal text. A
// partial graph carries a label saying how many events are missing.
func (g *Graph) DOT() string {
	live := g.liveTasks()
	drawn := map[uint64]bool{}
	for _, t := range live {
		if p, ok := g.waiting[t]; ok {
			drawn[p] = true
		}
		for p := range g.ownedBy[t] {
			drawn[p] = true
		}
	}
	proms := make([]uint64, 0, len(drawn))
	for p := range drawn {
		proms = append(proms, p)
	}
	sort.Slice(proms, func(i, j int) bool {
		li, lj := g.promiseLabel(proms[i]), g.promiseLabel(proms[j])
		if li != lj {
			return li < lj
		}
		return proms[i] < proms[j]
	})

	var b strings.Builder
	b.WriteString("digraph promises {\n  rankdir=LR;\n")
	if g.Partial() {
		fmt.Fprintf(&b, "  label=\"partial window: %d earlier event(s) missing\";\n", g.dropped)
	}
	for _, t := range live {
		fmt.Fprintf(&b, "  %q [shape=box];\n", g.taskName(t))
	}
	for _, p := range proms {
		fmt.Fprintf(&b, "  %q [shape=ellipse];\n", g.promiseLabel(p))
	}
	for _, t := range live {
		if p, ok := g.waiting[t]; ok {
			fmt.Fprintf(&b, "  %q -> %q;\n", g.taskName(t), g.promiseLabel(p))
		}
	}
	for _, p := range proms {
		if o := g.owner[p]; o != 0 && !g.ended[o] {
			fmt.Fprintf(&b, "  %q -> %q [style=dashed];\n", g.promiseLabel(p), g.taskName(o))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// metaValue returns the value of key in a meta record of the form
// "k=v k=v ...".
func metaValue(detail, key string) (string, bool) {
	for _, f := range strings.Fields(detail) {
		if k, v, ok := strings.Cut(f, "="); ok && k == key {
			return v, true
		}
	}
	return "", false
}

// sortedCopy returns evs in Seq order without reordering the caller's
// slice.
func sortedCopy(evs []Event) []Event {
	sorted := make([]Event, len(evs))
	copy(sorted, evs)
	SortBySeq(sorted)
	return sorted
}
