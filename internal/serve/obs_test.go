package serve

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSessionStatsNonBlockingRace covers the Stats footgun fix: Stats on
// an unfinished session must return (zero, false) immediately instead of
// blocking, and concurrent Stats calls racing the session job's final
// stats write must be race-free (the done-channel receive orders the
// read). Run under -race by the tier-1 suite.
func TestSessionStatsNonBlockingRace(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 2, Runtime: []core.Option{core.WithMode(core.Full)}})
	defer pool.Close()
	gate := make(chan struct{})
	s, err := pool.Submit(t.Context(), "gated", func(tk *core.Task) error {
		<-gate
		return cleanProg(tk)
	})
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, pool, 1)
	// The session is provably still running: a peek must not block and
	// must not claim readiness.
	if st, ok := s.Stats(); ok {
		t.Fatalf("Stats ready before session finished: %+v", st)
	}

	// Hammer Stats from many goroutines across the completion boundary.
	const readers = 8
	var wg sync.WaitGroup
	results := make([]core.Stats, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if st, ok := s.Stats(); ok {
					results[i] = st
					return
				}
				runtime.Gosched()
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	final, ok := s.Stats()
	if !ok {
		t.Fatal("Stats not ready after all readers observed completion")
	}
	if final.Tasks == 0 {
		t.Fatalf("final stats counted no tasks: %+v", final)
	}
	for i, r := range results {
		if r != final {
			t.Errorf("reader %d saw %+v, final is %+v", i, r, final)
		}
	}
}

// TestPoolStatsEventsDroppedAggregate covers the pool-level drop
// aggregate: PoolStats.EventsDropped is the sum of per-session
// core.Stats.EventsDropped. Healthy traced sessions contribute zero (and
// the tier-1 suite asserts that elsewhere); here we also verify the
// surfacing itself, white-box, so a lossy run is guaranteed to show up
// at the pool level and not just per session.
func TestPoolStatsEventsDroppedAggregate(t *testing.T) {
	pool := NewPool(Config{
		MaxSessions: 4,
		QueueDepth:  8,
		Runtime:     []core.Option{core.WithMode(core.Full), core.TraceTo(trace.NewMemSink(4096))},
	})
	defer pool.Close()

	const n = 8
	sessions := make([]*Session, n)
	for i := range sessions {
		s, err := pool.Submit(t.Context(), "drops", cleanProg)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	var want int64
	for _, s := range sessions {
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		st, ok := s.Stats()
		if !ok {
			t.Fatal("Stats not ready after Wait")
		}
		want += st.EventsDropped
	}
	if got := pool.Stats().EventsDropped; got != want {
		t.Fatalf("pool EventsDropped = %d, want sum of sessions %d", got, want)
	}
	// The aggregate counter feeds straight into the snapshot — a nonzero
	// sum must surface. (A real drop needs an event logged after
	// TraceClose, which a pool session never does; bump the accumulator
	// directly instead.)
	pool.dropped.Add(7)
	if got := pool.Stats().EventsDropped; got != want+7 {
		t.Fatalf("pool EventsDropped = %d after +7, want %d", got, want+7)
	}
}

// TestPoolObserveWindowedQuantiles is the acceptance check for
// Pool.Observe: the windowed execution-latency p99 over a 64-session run
// must land within 2x of the p99 computed from the sessions' own
// reported durations (the figure loadgen prints).
func TestPoolObserveWindowedQuantiles(t *testing.T) {
	pool := NewPool(Config{MaxSessions: 8, QueueDepth: 64})
	defer pool.Close()

	const n = 64
	sessions := make([]*Session, n)
	for i := range sessions {
		d := time.Duration(1+i%4) * time.Millisecond
		s, err := pool.Submit(t.Context(), "observe", func(tk *core.Task) error {
			time.Sleep(d)
			return cleanProg(tk)
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		sessions[i] = s
	}
	ref := hist.NewHistogram()
	for i, s := range sessions {
		if err := s.Wait(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		ref.Observe(s.Duration())
	}

	ob := pool.Observe()
	if ob.Exec.Count != n {
		t.Fatalf("window counted %d sessions, want %d (span %v)", ob.Exec.Count, n, ob.Span)
	}
	if ob.QueueWait.Count != n {
		t.Fatalf("queue-wait window counted %d sessions, want %d", ob.QueueWait.Count, n)
	}
	wantP99 := float64(ref.Quantile(0.99)) / float64(time.Millisecond)
	gotP99 := ob.Exec.P99Ms
	if wantP99 <= 0 || gotP99 <= 0 {
		t.Fatalf("degenerate p99s: window %.3fms, sessions %.3fms", gotP99, wantP99)
	}
	if gotP99 > 2*wantP99 || gotP99 < wantP99/2 {
		t.Fatalf("windowed p99 %.3fms not within 2x of session-measured p99 %.3fms", gotP99, wantP99)
	}
	t.Logf("windowed p99 %.3fms vs session-measured %.3fms (n=%d)", gotP99, wantP99, n)
}

// TestServeMetricsRegistry drives the serving layer with a registry
// installed and checks every serve_* family lands: submission/rejection
// counters (total and by reason), the in-flight gauge returning to zero,
// per-class and per-tenant verdict counters (fairness tenants only —
// sessions submitted without WithTenant share "default"), the latency
// windows (shared with Pool.Observe by name), and the Prometheus
// rendering of all of it.
func TestServeMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Install(reg)
	t.Cleanup(func() { obs.Install(nil) })

	// NewPool AFTER Install: the pool's windows must be the registry's
	// named recorders, so scrape and Observe read the same buckets.
	pool := NewPool(Config{
		MaxSessions: 2,
		QueueDepth:  2,
		Runtime:     []core.Option{core.WithMode(core.Full), core.TraceTo(trace.NewMemSink(512))},
	})
	defer pool.Close()

	// One clean and one deadlock session under tenant-a, one clean
	// session without a tenant (lands in "default").
	progs := []struct {
		tenant string
		fn     core.TaskFunc
	}{
		{"tenant-a", core.TaskFunc(cleanProg)},
		{"tenant-a", deadlockProg},
		{"", core.TaskFunc(cleanProg)},
	}
	for i, pr := range progs {
		var opts []Option
		if pr.tenant != "" {
			opts = append(opts, WithTenant(pr.tenant))
		}
		s, err := pool.Submit(t.Context(), pr.tenant, pr.fn, opts...)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		s.Wait()
	}
	// One synchronous rejection: dead-on-arrival context.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := pool.Submit(ctx, "doa", cleanProg); err == nil {
		t.Fatal("Submit on a dead ctx succeeded")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["serve_sessions_submitted_total"]; got != 3 {
		t.Errorf("submitted counter = %d, want 3", got)
	}
	if got := snap.Counters["serve_sessions_rejected_total"]; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	reasons := snap.Vectors["serve_sessions_rejected_by_reason_total"]
	if got := reasons["reason=dead_ctx"]; got != 1 {
		t.Errorf("rejected reason dead_ctx = %d, want 1 (vec: %v)", got, reasons)
	}
	if got := snap.Gauges["serve_sessions_inflight"]; got != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0", got)
	}
	verdicts := snap.Vectors["serve_verdicts_total"]
	if got := verdicts["class=clean"]; got != 2 {
		t.Errorf("clean verdicts = %d, want 2 (vec: %v)", got, verdicts)
	}
	if got := verdicts["class=deadlock"]; got != 1 {
		t.Errorf("deadlock verdicts = %d, want 1 (vec: %v)", got, verdicts)
	}
	tenants := snap.Vectors["serve_tenant_verdicts_total"]
	if got := tenants["tenant=tenant-a,verdict=clean"]; got != 1 {
		t.Errorf("tenant-a clean = %d, want 1 (vec: %v)", got, tenants)
	}
	if got := tenants["tenant=tenant-a,verdict=deadlock"]; got != 1 {
		t.Errorf("tenant-a deadlock = %d, want 1 (vec: %v)", got, tenants)
	}
	if got := tenants["tenant=default,verdict=clean"]; got != 1 {
		t.Errorf("default clean = %d, want 1 (vec: %v)", got, tenants)
	}
	execWin, ok := snap.Windows["serve_exec_latency_seconds"]
	if !ok || execWin.Count != 3 {
		t.Errorf("exec window snapshot = %+v (ok=%v), want count 3", execWin, ok)
	}
	// Shared-by-name: Observe must read the same buckets the scrape does.
	if ob := pool.Observe(); ob.Exec.Count != execWin.Count {
		t.Errorf("Observe count %d != registry window count %d", ob.Exec.Count, execWin.Count)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"serve_sessions_submitted_total 3",
		`serve_verdicts_total{class="deadlock"} 1`,
		`serve_tenant_verdicts_total{tenant="tenant-a",verdict="clean"} 1`,
		`serve_exec_latency_seconds{quantile="0.99"}`,
		"serve_exec_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q\n%s", want, text)
		}
	}
	// The rest of the instrumented stack reported through the same
	// registry while those sessions ran.
	for _, name := range []string{"core_spawns_scheduled_total", "trace_events_emitted_total"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0 after traced sessions ran", name)
		}
	}
}
