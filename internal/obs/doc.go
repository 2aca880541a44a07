// Package obs is the runtime's unified telemetry layer: a lock-free
// metrics subsystem the instrumented packages (core, sched, serve,
// trace) publish into, and an opt-in export surface (Prometheus text,
// expvar-style JSON, net/http/pprof) on top.
//
// The design is built around one hard requirement: the instrumented
// fast paths — spawn, Set/Get, queue push/pop, trace emit — must cost
// NOTHING when observability is off, and a single padded-atomic
// increment when it is on. Three decisions follow:
//
//   - Counters and gauges are plain padded atomics (no maps, no labels,
//     no allocation on increment). Labeled families (CounterVec) resolve
//     their label set to a *Counter once, off the hot path, and the hot
//     path increments the resolved pointer.
//
//   - Metrics are registered ONCE, at install time, never looked up per
//     operation. Each instrumented package keeps an atomic.Pointer to
//     its private struct of resolved metric pointers; Install(registry)
//     runs every package's registration hook (see OnInstall) and swaps
//     the pointers in. With no registry installed the pointer is nil and
//     the hot path is one atomic load plus a predictable branch —
//     measured by the spawn-instrumented benchtable row and pinned by
//     its -alloccap gate.
//
//   - Latency is recorded into windowed histograms (Window): rotating
//     time buckets over hist.Histogram, so Quantile(q) answers with the
//     RECENT p50/p99 rather than the lifetime value. Lifetime quantiles
//     converge to the steady state and stop moving; admission control
//     (ROADMAP item 1) needs "what is p99 right now", which only a
//     window can answer.
//
// Snapshot() digests a registry into a JSON-marshalable value; Serve()
// exposes the same data over HTTP in both Prometheus text format
// (GET /metrics) and JSON (GET /metrics.json), with net/http/pprof wired
// under /debug/pprof/ on the same listener.
package obs
