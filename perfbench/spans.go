package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer names a span: the public call (or wrapped body) it brackets.
type layer uint8

const (
	spanNone         layer = iota
	spanRuntimeRun         // core.Runtime.Run
	spanPoolSubmit         // serve.Pool.Submit
	spanSessionWait        // serve.Session.Wait
	spanQueue              // serve.Session.QueueLatency, from Submit's return
	spanBody               // the benchmark's wrapped session body
	spanClientSubmit       // front.Client.Submit
	spanRemoteDone         // receive from front.RemoteSession.Done
	spanGraphRun           // graph.Graph.Run
	spanGraphNode          // one graph node, from its NodeResult
	spanRequest            // a whole request, as its caller sees it
)

var layerNames = [...]string{
	spanNone:         "-",
	spanRuntimeRun:   "core.Runtime.Run",
	spanPoolSubmit:   "serve.Pool.Submit",
	spanSessionWait:  "serve.Session.Wait",
	spanQueue:        "serve.queue",
	spanBody:         "body",
	spanClientSubmit: "front.Client.Submit",
	spanRemoteDone:   "front.RemoteSession.Done",
	spanGraphRun:     "graph.Graph.Run",
	spanGraphNode:    "graph.node",
	spanRequest:      "request",
}

// span is one timed interval of one request. Spans of a request share
// req; parent names the enclosing span's layer within that request.
// Times are nanoseconds since the recorder's base.
type span struct {
	start, end int64
	req        uint32
	layer      layer
	parent     layer
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// clock is the monotonic time base every span of a run is stamped on.
type clock struct{ base time.Time }

func newClock() clock                { return clock{base: time.Now()} }
func (c clock) now() int64           { return int64(time.Since(c.base)) }
func (c clock) at(t time.Time) int64 { return int64(t.Sub(c.base)) }

// maxSpans bounds the spans one traced run keeps in memory (about 10 MB);
// requests beyond it are measured but not traced.
const maxSpans = 400_000

// spanLog holds one goroutine's spans; logs are merged when the run ends,
// so recording takes no lock.
type spanLog struct {
	spans []span
	limit int
}

func newSpanLog(limit int) *spanLog { return &spanLog{limit: limit} }

// room reports whether n more spans fit.
func (l *spanLog) room(n int) bool { return len(l.spans)+n <= l.limit }

func (l *spanLog) add(req uint32, ly, parent layer, start, end int64) {
	l.spans = append(l.spans, span{start: start, end: end, req: req, layer: ly, parent: parent})
}

// eachRequest calls f with the spans of each request, in the order the
// logs hold them. A goroutine records a request's spans one after
// another, so they sit together in its log.
func eachRequest(logs []*spanLog, f func(request)) {
	for _, l := range logs {
		for i := 0; i < len(l.spans); {
			j := i + 1
			for j < len(l.spans) && l.spans[j].req == l.spans[i].req {
				j++
			}
			f(l.spans[i:j])
			i = j
		}
	}
}

// request is the spans of one request.
type request []span

// get returns the request's span of layer ly; a request records each
// layer once.
func (r request) get(ly layer) span {
	for _, s := range r {
		if s.layer == ly {
			return s
		}
	}
	panic(fmt.Sprintf("perfbench: request %d has no %s span", r[0].req, layerNames[ly]))
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(parent.end - parent.start - covered)
}

// writeSpans writes every span, ordered by request and start time, as
// tab-separated lines "req layer parent start_ns end_ns" to
// dir/<workload>.tsv, replacing the previous run's file.
func writeSpans(dir, workload string, logs []*spanLog) (string, error) {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].req != all[j].req {
			return all[i].req < all[j].req
		}
		return all[i].start < all[j].start
	})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "req\tlayer\tparent\tstart_ns\tend_ns")
	for _, s := range all {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.req, layerNames[s.layer], layerNames[s.parent], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
