package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter %d", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge %d", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, each = 8, 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Fatalf("lost increments: %d", c.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Fatal("counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge not idempotent")
	}
	if r.CounterVec("v_total", "class") != r.CounterVec("v_total", "ignored") {
		t.Fatal("vec not idempotent")
	}
	if r.Window("w_seconds", time.Second, 4) != r.Window("w_seconds", time.Minute, 9) {
		t.Fatal("window not idempotent")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("verdicts_total", "class")
	clean := v.With("clean")
	if v.With("clean") != clean {
		t.Fatal("With not stable")
	}
	clean.Add(3)
	v.With("deadlock").Inc()
	s := r.Snapshot()
	if s.Vectors["verdicts_total"]["class=clean"] != 3 ||
		s.Vectors["verdicts_total"]["class=deadlock"] != 1 {
		t.Fatalf("vec snapshot %+v", s.Vectors)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity must panic")
		}
	}()
	v.With("a", "b")
}

func TestWindowRecentQuantiles(t *testing.T) {
	// 4 buckets of 25ms: observations older than ~100ms rotate out.
	w := NewWindow(100*time.Millisecond, 4)
	if w.Span() != 100*time.Millisecond {
		t.Fatalf("span %v", w.Span())
	}
	for i := 0; i < 100; i++ {
		w.Observe(Now(), time.Duration(i+1)*time.Millisecond)
	}
	if n := w.Count(); n != 100 {
		t.Fatalf("in-window count %d", n)
	}
	if q := w.Quantile(0.5); q < 50*time.Millisecond || q > 56*time.Millisecond {
		t.Fatalf("p50 %v", q)
	}
	// Let every bucket rotate out: the window must forget, unlike a
	// lifetime histogram.
	time.Sleep(130 * time.Millisecond)
	if n := w.Count(); n != 0 {
		t.Fatalf("stale observations still in window: %d", n)
	}
	if q := w.Quantile(0.99); q != 0 {
		t.Fatalf("stale p99 %v", q)
	}
	// And keep working after full rotation.
	w.Observe(Now(), 7*time.Millisecond)
	if q := w.Quantile(1); q != 7*time.Millisecond {
		t.Fatalf("post-rotation p100 %v", q)
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(50*time.Millisecond, 5)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w.Observe(Now(), time.Millisecond)
				}
			}
		}()
	}
	deadline := time.After(60 * time.Millisecond)
poll:
	for {
		select {
		case <-deadline:
			break poll
		default:
			_ = w.Quantile(0.99)
			_ = w.Summary()
		}
	}
	close(stop)
	wg.Wait()
}

// TestWindowRotationKeepsEverySample: 8 goroutines observe across many
// 1ms slice rotations, inside a span long enough that nothing expires,
// so the window must count every observation — none may be wiped by the
// reset that hands a bucket to its new slice.
func TestWindowRotationKeepsEverySample(t *testing.T) {
	const goroutines = 8
	w := NewWindow(400*time.Millisecond, 400)
	stop := time.Now().Add(100 * time.Millisecond)
	var wg sync.WaitGroup
	counts := make([]int64, goroutines)
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				w.Observe(Now(), time.Microsecond)
				counts[i]++
			}
		}()
	}
	wg.Wait()
	var want int64
	for _, n := range counts {
		want += n
	}
	if got := w.Count(); got != want {
		t.Fatalf("window counted %d of %d observations", got, want)
	}
}

func TestInstallHooks(t *testing.T) {
	defer Install(nil)
	var got *Registry
	OnInstall(func(r *Registry) { got = r })
	reg := NewRegistry()
	Install(reg)
	if got != reg || Installed() != reg {
		t.Fatal("hook did not receive the installed registry")
	}
	// A hook registered AFTER install runs immediately.
	var late *Registry
	OnInstall(func(r *Registry) { late = r })
	if late != reg {
		t.Fatal("late hook not run with current registry")
	}
	Install(nil)
	if got != nil || Installed() != nil {
		t.Fatal("uninstall did not reach hooks")
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("spawns_total").Add(5)
	r.Gauge("inflight").Set(2)
	r.Window("lat_seconds", time.Second, 4).Observe(Now(), 3*time.Millisecond)
	s := r.Snapshot()
	if s.Counters["spawns_total"] != 5 || s.Gauges["inflight"] != 2 {
		t.Fatalf("snapshot %+v", s)
	}
	if w := s.Windows["lat_seconds"]; w.Count != 1 || w.Span != "1s" {
		t.Fatalf("window snapshot %+v", w)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back["counters"]; !ok {
		t.Fatalf("json shape %s", raw)
	}
}

// promLine matches one non-comment Prometheus text-format sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+$`)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("spawns_total").Add(7)
	r.Gauge("inflight").Set(1)
	r.CounterVec("verdicts_total", "class", "tenant").With("clean", `odd"tenant\`).Add(2)
	w := r.Window("lat_seconds", time.Second, 4)
	w.Observe(Now(), 2*time.Millisecond)
	w.Observe(Now(), 4*time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE spawns_total counter\nspawns_total 7\n",
		"# TYPE inflight gauge\ninflight 1\n",
		`verdicts_total{class="clean",tenant="odd\"tenant\\"} 2`,
		"# TYPE lat_seconds summary",
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "up_total 1") {
		t.Fatalf("/metrics: %s", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["up_total"] != 1 {
		t.Fatalf("/metrics.json counters %+v", snap.Counters)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatalf("pprof index: %.120s", out)
	}
}

func TestServeNoRegistry(t *testing.T) {
	defer Install(nil)
	Install(nil)
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve with no registry anywhere must fail")
	}
	Install(NewRegistry())
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

func ExampleRegistry() {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	fmt.Println(r.Snapshot().Counters["requests_total"])
	// Output: 3
}
