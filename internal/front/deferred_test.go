package front

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// gatedRegistry registers "Gate", a body that returns at once while
// gate holds nil and otherwise reports its start on started and waits
// for the gate to close or its run to be canceled.
func gatedRegistry(gate *atomic.Pointer[chan struct{}], started chan<- struct{}) Registry {
	return Registry{"Gate": func(workloads.Scale) core.TaskFunc {
		return func(tk *core.Task) error {
			g := gate.Load()
			if g == nil {
				return nil
			}
			started <- struct{}{}
			select {
			case <-*g:
				return nil
			case <-tk.Context().Done():
				return context.Cause(tk.Context())
			}
		}
	}}
}

// markShort submits no-op runs of workload until the front marks it
// short, starting at id *id and advancing it past the last one used.
func markShort(t *testing.T, f *Front, fw *frameWriter, fr *frameReader, workload string, id *uint64) {
	t.Helper()
	for first := *id; !f.short[workload][workloads.ScaleDefault].Load(); *id++ {
		if *id-first == 20 {
			t.Fatalf("20 runs of %s and none was marked short", workload)
		}
		earlyAccept(t, fw, fr, *id, workload, 0)
	}
}

// answer reads frames until id's verdict, failing t unless exactly one
// accept for id precedes it. Goaway frames are skipped; any other frame
// fails t. It returns when the accept and the verdict arrived, counted
// from start, and the verdict's class.
func answer(t *testing.T, fr *frameReader, id uint64, start time.Time) (acceptAt, verdictAt time.Duration, verdict string) {
	t.Helper()
	accepts := 0
	for {
		typ, body, err := fr.read()
		if err != nil {
			t.Fatalf("#%d after %d accepts: %v", id, accepts, err)
		}
		switch typ {
		case frameAccept:
			var m acceptMsg
			if m.decode(body) != nil || m.ID != id {
				t.Fatalf("accept %+v while waiting on #%d", m, id)
			}
			if accepts++; accepts > 1 {
				t.Fatalf("#%d accepted twice", id)
			}
			acceptAt = time.Since(start)
		case frameVerdict:
			var m verdictMsg
			if m.decode(body) != nil || m.ID != id {
				t.Fatalf("verdict %+v while waiting on #%d", m, id)
			}
			if accepts != 1 {
				t.Fatalf("#%d verdict %s arrived before its accept", id, m.Verdict)
			}
			return acceptAt, time.Since(start), m.Verdict
		case frameGoaway:
		default:
			t.Fatalf("unexpected frame %d while waiting on #%d", typ, id)
		}
	}
}

// TestShortNoopSharesAcceptWrite: once a no-op workload is marked short,
// its accept waits for the session's completion hook, which sends the
// accept and the verdict in one write. Nearly every sequential submit is
// counted by front_verdicts_with_accept_total, at one P and at two. The
// race detector can stretch a no-op body past shortBody, which sends
// that accept alone and clears the flag for the next submit, so the
// bound leaves room for a few.
func TestShortNoopSharesAcceptWrite(t *testing.T) {
	const n, minShare = 200, 0.9
	reg := Registry{"Noop": func(workloads.Scale) core.TaskFunc { return func(*core.Task) error { return nil } }}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			metrics := obs.NewRegistry()
			obs.Install(metrics)
			defer obs.Install(nil)
			f := frontWith(t, Config{Registry: reg})
			defer f.Shutdown(context.Background())
			fw, fr := rawConn(t, f)
			id := uint64(1)
			markShort(t, f, fw, fr, "Noop", &id)
			merged := func() int64 { return metrics.Snapshot().Counters["front_verdicts_with_accept_total"] }
			before := merged()
			for end := id + n; id < end; id++ {
				if err := fw.send(frameSubmit, submitMsg{ID: id, Workload: "Noop"}.appendBody); err != nil {
					t.Fatal(err)
				}
				answer(t, fr, id, time.Now())
			}
			got := merged() - before
			expired := metrics.Snapshot().Counters["front_accepts_expired_total"]
			t.Logf("%d of %d verdicts shared their accept's write; %d deferred accepts expired", got, n, expired)
			if float64(got) < minShare*n {
				t.Fatalf("%d of %d no-op verdicts shared their accept's write, want at least %.0f%%", got, n, 100*minShare)
			}
		})
	}
}

// TestDeferredAcceptExpiresAlone: a workload marked short whose next
// body blocks gets its accept alone from the shortBody timer, well
// before the body ends, and its verdict after the accept. The accept is
// counted by front_accepts_expired_total, and the long run clears the
// workload's short flag, so its next submit is answered at once.
func TestDeferredAcceptExpiresAlone(t *testing.T) {
	const slack = 500 * time.Millisecond
	metrics := obs.NewRegistry()
	obs.Install(metrics)
	defer obs.Install(nil)
	var gate atomic.Pointer[chan struct{}]
	started := make(chan struct{}, 1)
	f := frontWith(t, Config{Registry: gatedRegistry(&gate, started)})
	defer f.Shutdown(context.Background())
	fw, fr := rawConn(t, f)
	id := uint64(1)
	markShort(t, f, fw, fr, "Gate", &id)

	g := make(chan struct{})
	gate.Store(&g)
	start := time.Now()
	if err := fw.send(frameSubmit, submitMsg{ID: id, Workload: "Gate"}.appendBody); err != nil {
		t.Fatal(err)
	}
	typ, body, err := fr.read()
	var a acceptMsg
	if err != nil || typ != frameAccept || a.decode(body) != nil || a.ID != id {
		t.Fatalf("first frame: type %d, %+v, %v; want the accept of #%d", typ, a, err, id)
	}
	acceptAt := time.Since(start)
	if acceptAt > shortBody+slack {
		t.Fatalf("accept of a blocked short body after %v, want within %v of shortBody", acceptAt, slack)
	}
	<-started
	close(g)
	typ, body, err = fr.read()
	var v verdictMsg
	if err != nil || typ != frameVerdict || v.decode(body) != nil || v.ID != id || v.Verdict != "clean" {
		t.Fatalf("second frame: type %d, %+v, %v; want the clean verdict of #%d", typ, v, err, id)
	}
	t.Logf("accept alone after %v, verdict after %v", acceptAt, time.Since(start))
	if n := metrics.Snapshot().Counters["front_accepts_expired_total"]; n != 1 {
		t.Fatalf("front_accepts_expired_total = %d, want 1", n)
	}
	if f.short["Gate"][workloads.ScaleDefault].Load() {
		t.Fatal("a body that blocked past shortBody left its workload marked short")
	}
}

// TestStraddlingBodyAnswersOnce: bodies that busy-wait for about
// shortBody race the completion hook against the timer. Whichever sends
// the accept, each submit gets exactly one accept and then exactly one
// verdict, and nothing else follows: a ping sent after the last verdict
// is answered by the next frame.
func TestStraddlingBodyAnswersOnce(t *testing.T) {
	const n = 60
	body := []time.Duration{0, shortBody / 2, shortBody, shortBody + shortBody/8}
	var run atomic.Int64
	reg := Registry{"Straddle": func(workloads.Scale) core.TaskFunc {
		return func(*core.Task) error {
			d := body[run.Add(1)%int64(len(body))]
			for start := time.Now(); time.Since(start) < d; {
			}
			return nil
		}
	}}
	f := frontWith(t, Config{Registry: reg})
	defer f.Shutdown(context.Background())
	fw, fr := rawConn(t, f)
	for id := uint64(1); id <= n; id++ {
		if err := fw.send(frameSubmit, submitMsg{ID: id, Workload: "Straddle"}.appendBody); err != nil {
			t.Fatal(err)
		}
		if _, _, v := answer(t, fr, id, time.Now()); v != "clean" {
			t.Fatalf("#%d: verdict %s", id, v)
		}
	}
	if err := fw.send(framePing, pingMsg{Seq: 7}.appendBody); err != nil {
		t.Fatal(err)
	}
	typ, pong, err := fr.read()
	var p pingMsg
	if err != nil || typ != framePong || p.decode(pong) != nil || p.Seq != 7 {
		t.Fatalf("after the last verdict: frame %d, %+v, %v; want pong 7", typ, p, err)
	}
}

// TestDeferredAcceptCloseLeaksNothing: a client that hangs up while a
// short workload's session is blocked, its accept deferred or just sent,
// gets its session canceled. The verdict is built once and written to
// the dead conn or spilled, never twice, and once the front is shut down
// no goroutine is left, the timer's included.
func TestDeferredAcceptCloseLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	metrics := obs.NewRegistry()
	obs.Install(metrics)
	defer obs.Install(nil)
	var gate atomic.Pointer[chan struct{}]
	started := make(chan struct{}, 1)
	f := frontWith(t, Config{Registry: gatedRegistry(&gate, started)})
	fw, fr := rawConn(t, f)
	id := uint64(1)
	markShort(t, f, fw, fr, "Gate", &id)
	verdicts := func() (n int64) {
		for _, c := range metrics.Snapshot().Vectors["front_verdicts_total"] {
			n += c
		}
		return n
	}
	built := verdicts()

	g := make(chan struct{})
	defer close(g)
	gate.Store(&g)
	if err := fw.send(frameSubmit, submitMsg{ID: id, Workload: "Gate"}.appendBody); err != nil {
		t.Fatal(err)
	}
	<-started
	fw.w.(interface{ Close() error }).Close()
	for deadline := time.Now().Add(10 * time.Second); verdicts() == built; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the hung-up client's session never got a verdict")
		}
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := verdicts() - built; n != 1 {
		t.Fatalf("%d verdicts built for one session", n)
	}
	name := fmt.Sprintf("gold/Gate#%d", id)
	spills := 0
	for _, sv := range f.Spilled() {
		if sv.Session == name {
			spills++
		}
	}
	if spills > 1 {
		t.Fatalf("%s spilled %d times", name, spills)
	}
	t.Logf("verdict of %s spilled %d times", name, spills)
	settled(t, before)
}

// TestDeferredAcceptShutdownLeaksNothing: Shutdown while a short
// workload's session is blocked, its accept deferred or just sent,
// cancels the session at the drain deadline. The client reads exactly
// one accept and then exactly one verdict, nothing is spilled, and no
// goroutine is left.
func TestDeferredAcceptShutdownLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	var gate atomic.Pointer[chan struct{}]
	started := make(chan struct{}, 1)
	f := frontWith(t, Config{Registry: gatedRegistry(&gate, started)})
	fw, fr := rawConn(t, f)
	id := uint64(1)
	markShort(t, f, fw, fr, "Gate", &id)

	g := make(chan struct{})
	defer close(g)
	gate.Store(&g)
	start := time.Now()
	if err := fw.send(frameSubmit, submitMsg{ID: id, Workload: "Gate"}.appendBody); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- f.Shutdown(ctx) }()
	acceptAt, verdictAt, v := answer(t, fr, id, start)
	t.Logf("accept after %v, %s verdict after %v", acceptAt, v, verdictAt)
	if err := <-shut; err == nil {
		t.Fatal("Shutdown met its deadline with a session blocked on a closed gate")
	}
	if spilled := f.Spilled(); len(spilled) != 0 {
		t.Fatalf("spill log %+v, want the verdict delivered", spilled)
	}
	settled(t, before)
}

// settled fails t unless the goroutine count falls back to before
// within a few seconds.
func settled(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the front started", runtime.NumGoroutine(), before)
		}
	}
}
