package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The value is a
// single atomic padded out to its own cache line on both sides, so a
// battery of counters allocated together (the registry allocates them
// individually, packages hold resolved pointers) never false-shares
// under concurrent increments from many workers. Incrementing never
// allocates and never takes a lock: one atomic add.
type Counter struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be non-negative; counters are monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (in-flight sessions, queue depth):
// same padded-atomic representation as Counter, but it moves both ways.
type Gauge struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// Set stores an absolute level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a family of counters sharing one metric name and a fixed
// set of label names (Prometheus-style). The map lookup in With is
// mutex-guarded and meant for the control plane — callers on hot paths
// resolve their label sets once (e.g. at install or session start) and
// increment the returned *Counter directly.
type CounterVec struct {
	labels []string
	mu     sync.RWMutex
	m      map[string]*vecEntry
}

type vecEntry struct {
	values []string
	c      Counter
}

// With returns the counter for the given label values (one per label
// name, positionally), creating it on first use. The returned pointer is
// stable: cache it and increment without further lookups.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic("obs: CounterVec.With called with wrong number of label values")
	}
	key := strings.Join(values, "\x1f")
	v.mu.RLock()
	e := v.m[key]
	v.mu.RUnlock()
	if e != nil {
		return &e.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.m[key]; e != nil {
		return &e.c
	}
	if v.m == nil {
		v.m = make(map[string]*vecEntry)
	}
	e = &vecEntry{values: append([]string(nil), values...)}
	v.m[key] = e
	return &e.c
}

// snapshot returns the family's populated series, sorted by label
// values, as (rendered "k=v,..." key, raw values, count) triples.
func (v *CounterVec) snapshot() []vecSeries {
	v.mu.RLock()
	out := make([]vecSeries, 0, len(v.m))
	for _, e := range v.m {
		out = append(out, vecSeries{values: e.values, count: e.c.Value()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

type vecSeries struct {
	values []string
	count  int64
}

// key renders the series identity as "label=value,label=value" for the
// JSON snapshot.
func (s vecSeries) key(labels []string) string {
	var b strings.Builder
	for i, name := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(s.values[i])
	}
	return b.String()
}
