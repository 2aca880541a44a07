package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// Registry is a process-wide named metric set. All accessors are
// get-or-create and idempotent per name — the instrumented packages
// register at install time and keep the returned pointers, so no lookup
// ever happens on a hot path. Names should follow Prometheus
// conventions ([a-zA-Z_:][a-zA-Z0-9_:]*, unit-suffixed), since they are
// exported verbatim in text exposition format.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	vecs     map[string]*CounterVec
	windows  map[string]*Window
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		vecs:     make(map[string]*CounterVec),
		windows:  make(map[string]*Window),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterVec returns the named counter family, creating it with the
// given label names on first use (later calls return the existing family
// regardless of the labels argument).
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vecs[name]
	if v == nil {
		v = &CounterVec{labels: append([]string(nil), labels...)}
		r.vecs[name] = v
	}
	return v
}

// Window returns the named windowed recorder, creating it with the given
// geometry on first use (later calls return the existing window
// regardless of the geometry arguments — two pools asking for
// "serve_exec_latency_seconds" share one recorder).
func (r *Registry) Window(name string, span time.Duration, buckets int) *Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.windows[name]
	if w == nil {
		w = NewWindow(span, buckets)
		r.windows[name] = w
	}
	return w
}

// Snapshot is the JSON-marshalable digest of a registry at one instant.
type Snapshot struct {
	TakenAt  time.Time                   `json:"taken_at"`
	Counters map[string]int64            `json:"counters"`
	Gauges   map[string]int64            `json:"gauges"`
	Vectors  map[string]map[string]int64 `json:"vectors,omitempty"`
	Windows  map[string]WindowSnapshot   `json:"windows,omitempty"`
}

// WindowSnapshot digests one windowed recorder: its nominal span and the
// in-window latency summary (milliseconds).
type WindowSnapshot struct {
	Span string `json:"span"`
	hist.HistSummary
}

// Snapshot digests every registered metric. It takes the registry lock
// only to copy the name tables, then reads each metric with its own
// atomic load (counters, gauges) or short-lived bucket locks (windows) —
// cheap enough to poll from a scrape handler without disturbing load.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	vecs := make(map[string]*CounterVec, len(r.vecs))
	for n, v := range r.vecs {
		vecs[n] = v
	}
	windows := make(map[string]*Window, len(r.windows))
	for n, w := range r.windows {
		windows[n] = w
	}
	r.mu.Unlock()

	s := Snapshot{
		TakenAt:  time.Now(),
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	if len(vecs) > 0 {
		s.Vectors = make(map[string]map[string]int64, len(vecs))
		for n, v := range vecs {
			series := v.snapshot()
			m := make(map[string]int64, len(series))
			for _, e := range series {
				m[e.key(v.labels)] = e.count
			}
			s.Vectors[n] = m
		}
	}
	if len(windows) > 0 {
		s.Windows = make(map[string]WindowSnapshot, len(windows))
		for n, w := range windows {
			s.Windows[n] = WindowSnapshot{Span: w.Span().String(), HistSummary: w.Summary()}
		}
	}
	return s
}

// The process-wide install point. Instrumented packages register an
// OnInstall hook from init(); Install(reg) runs every hook with the new
// registry (nil uninstalls), and each hook swaps its package's resolved
// metric pointers in or out. The indirection keeps the dependency arrow
// pointing the cheap way: obs knows nothing about the packages it
// instruments, and a package whose hook stored nil pays one atomic
// pointer load + branch per would-be increment.
var (
	installMu sync.Mutex
	installed atomic.Pointer[Registry]
	hooks     []func(*Registry)
)

// OnInstall registers a hook to run at every Install. If a registry is
// already installed the hook runs immediately with it, so package init
// order relative to Install does not matter.
func OnInstall(hook func(*Registry)) {
	installMu.Lock()
	defer installMu.Unlock()
	hooks = append(hooks, hook)
	if r := installed.Load(); r != nil {
		hook(r)
	}
}

// Install makes reg the process-wide registry and runs every registered
// hook with it. Install(nil) uninstalls: hooks run with nil and must
// drop their resolved metrics, returning every hot path to its
// uninstrumented cost. Install is idempotent and safe to call multiple
// times (each call re-runs the hooks), but it is a control-plane
// operation — install once at startup, not per request.
func Install(reg *Registry) {
	installMu.Lock()
	defer installMu.Unlock()
	installed.Store(reg)
	for _, hook := range hooks {
		hook(reg)
	}
}

// Installed returns the process-wide registry, or nil when none is
// installed.
func Installed() *Registry { return installed.Load() }
