// Package trace is the runtime's tracing subsystem: an event collector,
// a compact binary trace format, and an offline verifier that re-derives
// the detector's verdict from the trace alone.
//
// Four pieces cooperate:
//
//   - Collector (collector.go): stamps each event with a global
//     sequence number and delivers it to the sinks under one mutex. The
//     runtime stages each task's events locally and hands them over in
//     batches of at most 32, so a staged task takes the lock once per
//     batch rather than once per event. A slow sink applies
//     back-pressure to writers instead of dropping events: the
//     verifier's value rests on a complete stream.
//
//   - Binary format (encode.go, sink.go): events are varint-packed
//     records behind a Sink interface. MemSink retains events in memory
//     (optionally bounded, for the runtime's post-mortem event log; a
//     trimmed window leads with a gap record),
//     WriterSink/FileSink stream the binary encoding. Records carry the
//     global sequence number assigned at emission, so total order is a
//     property of the Seq field, not of byte order: batches arrive
//     near-sorted and readers sort by Seq.
//
//   - Offline verifier (verify.go): Verify replays a decoded event
//     stream through a model of the ownership policy and reconstructs
//     the waits-for graph, independently checking every alarm — a
//     deadlock alarm must correspond to a real cycle in the reconstructed
//     graph, an omitted-set alarm must name a task that still owns
//     unfulfilled promises and must precede that task's KindTaskEnd —
//     and that clean terminated runs are cycle-free and fully unwound.
//     cmd/tracecheck is the command-line entry point.
//
//   - Waits-for graph (graph.go): Graph is the replay state Verify
//     judges — owners, waits, live tasks. NewGraph replays a stream
//     without the checks and DOT draws it, so cmd/deadlock -dot shows
//     the graph the verifier sees.
//
// The package deliberately does not import internal/core: core depends
// on trace (it emits events through a Collector), and the verifier
// depends only on the recorded stream, which is what makes its verdict
// independent of the in-process detector.
package trace
