package front

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/sieve"
)

// frontWith starts a front from cfg on a loopback port, with the test
// tenants' keys.
func frontWith(t *testing.T, cfg Config) *Front {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.Keys = map[string]string{"gold-key": "gold", "bronze-key": "bronze"}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAcceptPrecedesVerdict pipelines 1000 no-op submits on one raw conn:
// many sessions finish before the read loop has written their accept, so
// either side of the accept/completion race sends the verdict, and it
// must never reach the wire ahead of its accept. Every accepted session
// gets exactly one verdict, and a rejected one none.
func TestAcceptPrecedesVerdict(t *testing.T) {
	const n = 1000
	reg := Registry{"Noop": func(workloads.Scale) core.TaskFunc {
		return func(*core.Task) error { return nil }
	}}
	f := frontWith(t, Config{Registry: reg, Serve: []serve.Option{serve.WithMaxSessions(4), serve.WithQueueDepth(n)}})
	defer f.Shutdown(context.Background())

	nc, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	fw := &frameWriter{w: nc}
	fr := newFrameReader(nc)
	if err := fw.send(frameHello, helloMsg{Version: ProtocolVersion, Key: "gold-key"}.appendBody); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := fr.read(); err != nil || typ != frameHelloAck {
		t.Fatalf("handshake: frame %d, %v", typ, err)
	}
	go func() {
		for id := uint64(1); id <= n; id++ {
			if fw.send(frameSubmit, submitMsg{ID: id, Workload: "Noop"}.appendBody) != nil {
				return
			}
		}
	}()

	const (
		pending = iota
		accepted
		rejected
		verdicted
	)
	state := make([]int, n+1)
	for answered := 0; answered < n; {
		typ, body, err := fr.read()
		if err != nil {
			t.Fatalf("after %d answers: %v", answered, err)
		}
		switch typ {
		case frameAccept:
			var m acceptMsg
			if m.decode(body) != nil || m.ID < 1 || m.ID > n || state[m.ID] != pending {
				t.Fatalf("accept %+v in state %d", m, state[m.ID])
			}
			state[m.ID] = accepted
		case frameReject:
			var m rejectMsg
			if m.decode(body) != nil || m.ID < 1 || m.ID > n || state[m.ID] != pending {
				t.Fatalf("reject %+v in state %d", m, state[m.ID])
			}
			state[m.ID] = rejected
			answered++
		case frameVerdict:
			var m verdictMsg
			if m.decode(body) != nil || m.ID < 1 || m.ID > n {
				t.Fatalf("corrupt verdict % x", body)
			}
			if state[m.ID] != accepted {
				t.Fatalf("verdict for submit %d arrived in state %d, want after its accept", m.ID, state[m.ID])
			}
			if m.Verdict != "clean" {
				t.Fatalf("submit %d: verdict %s (%s)", m.ID, m.Verdict, m.Err)
			}
			state[m.ID] = verdicted
			answered++
		default:
			t.Fatalf("unexpected frame %d", typ)
		}
	}
	got := 0
	for _, st := range state[1:] {
		if st == verdicted {
			got++
		}
	}
	t.Logf("%d of %d submits accepted and delivered", got, n)
	if got == 0 {
		t.Fatal("no submit was accepted")
	}
}

// TestInflightSessionsHoldNoGoroutine: 64 accepted sessions, 4 running
// and 60 queued, add the running sessions' workers to the server — not
// a goroutine per session.
func TestInflightSessionsHoldNoGoroutine(t *testing.T) {
	const n, running = 64, 4
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	reg := Registry{"Gated": func(workloads.Scale) core.TaskFunc {
		return func(*core.Task) error { <-gate; return nil }
	}}
	f := frontWith(t, Config{Registry: reg, Serve: []serve.Option{serve.WithMaxSessions(running), serve.WithQueueDepth(n)}})
	defer f.Shutdown(context.Background())
	defer release() // before Shutdown, even when the test fails early
	c, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := runtime.NumGoroutine()
	sessions := make([]*RemoteSession, n)
	for i := range sessions {
		if sessions[i], err = c.Submit(t.Context(), SubmitRequest{Workload: "Gated"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// An accept can precede its session job's start, so poll.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ps := f.Pool().Stats()
		if ps.InFlight == running && ps.Waiting == n-running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight %d, waiting %d; want %d and %d", ps.InFlight, ps.Waiting, running, n-running)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= n/4 {
		t.Fatalf("%d in-flight sessions added %d goroutines, want far fewer than %d", n, grew, n)
	}
	release()
	for i, s := range sessions {
		if err := s.Wait(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
}

// TestTracedSieveOverFront runs Sieve over two conns at once with every
// request traced. The mix once dropped thousands of trace events, when
// the trace collector retired batches through a bounded ring; the
// collector now back-pressures, so nothing may be dropped. Every
// returned trace must decode to its session's window: each session
// runtime also stages into a twin MemSink of the front's capacity, and
// the decoded events must equal one twin's Snapshot field for field.
// Sieve small emits about 100k events, so only the tail of its trace is
// retained (TraceCap 4096), behind one gap record counting the rest, and
// trace.Verify must call it incomplete rather than invalid; Sieve over
// 200 numbers (about 3k events) is retained whole, and its trace must
// pass trace.Verify.
func TestTracedSieveOverFront(t *testing.T) {
	const perConn = 6
	var (
		mu    sync.Mutex
		twins = map[*core.Runtime]*trace.MemSink{}
		runs  = map[string][]*core.Runtime{}
		progs = map[string]func(workloads.Scale) core.TaskFunc{
			"Sieve": DefaultRegistry()["Sieve"],
			"Sieve200": func(workloads.Scale) core.TaskFunc {
				return func(t *core.Task) error {
					_, err := sieve.Run(t, sieve.Config{N: 200})
					return err
				}
			},
		}
	)
	twin := func(rt *core.Runtime) {
		mem := trace.NewMemSink(defaultTraceCap)
		core.TraceTo(mem)(rt)
		mu.Lock()
		twins[rt] = mem
		mu.Unlock()
	}
	reg := Registry{}
	for name, prog := range progs {
		reg[name] = func(scale workloads.Scale) core.TaskFunc {
			body := prog(scale)
			return func(root *core.Task) error {
				mu.Lock()
				runs[name] = append(runs[name], root.Runtime())
				mu.Unlock()
				return body(root)
			}
		}
	}
	f := frontWith(t, Config{Registry: reg, Serve: []serve.Option{
		serve.WithMaxSessions(2), serve.WithQueueDepth(perConn), serve.WithRuntime(twin)}})
	defer f.Shutdown(context.Background())

	traces := make(chan []byte, 2*perConn)
	var wg sync.WaitGroup
	for _, key := range []string{"gold-key", "bronze-key"} {
		c, err := Dial(f.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				workload := []string{"Sieve", "Sieve200"}[i%2]
				s, err := c.Submit(t.Context(), SubmitRequest{Workload: workload, Scale: "small", Trace: true})
				if err != nil {
					t.Errorf("submit %s: %v", workload, err)
					return
				}
				if err := s.Wait(); err != nil {
					t.Errorf("%s: %v", workload, err)
					return
				}
				traces <- s.Trace()
			}
		}()
	}
	wg.Wait()
	close(traces)

	if d := f.Pool().Stats().EventsDropped; d != 0 {
		t.Fatalf("%d trace events dropped", d)
	}
	var windows [][]trace.Event
	for name, rts := range runs {
		for _, rt := range rts {
			evs := twins[rt].Snapshot()
			if name == "Sieve" {
				if len(evs) != 1+defaultTraceCap {
					t.Fatalf("Sieve small retained %d events, want a gap record and a full window of %d", len(evs), defaultTraceCap)
				}
				// Seq numbers run 1..N with no holes, so N-cap were trimmed.
				if g, last := evs[0], evs[len(evs)-1]; g.Kind != trace.KindGap || g.Arg != last.Seq-defaultTraceCap {
					t.Fatalf("Sieve small window leads with %v (arg %d), want a gap of %d", g.Kind, g.Arg, last.Seq-defaultTraceCap)
				}
				if r := trace.Verify(evs); r.Complete || len(r.Problems) != 1 || !strings.Contains(r.Problems[0], "replay checks skipped") {
					t.Fatalf("Sieve small window: %s %q, want INCOMPLETE with replay checks skipped", r.Summary(), r.Problems)
				}
			} else if r := trace.Verify(evs); !r.Clean() || !r.Consistent() {
				t.Fatalf("%s trace fails verification: %s", name, r.Summary())
			}
			windows = append(windows, evs)
		}
	}
	returned := 0
	for tr := range traces {
		evs, err := trace.ReadAll(bytes.NewReader(tr))
		if err != nil {
			t.Fatalf("returned trace does not decode: %v", err)
		}
		i := slices.IndexFunc(windows, func(w []trace.Event) bool { return slices.Equal(w, evs) })
		if i < 0 {
			t.Fatalf("returned trace of %d events is no session's window", len(evs))
		}
		windows = slices.Delete(windows, i, i+1)
		returned++
	}
	if returned != 2*perConn || len(runs["Sieve"]) != perConn || len(runs["Sieve200"]) != perConn {
		t.Fatalf("%d traces returned, sessions run %d Sieve small and %d Sieve200; want %d, %d, %d",
			returned, len(runs["Sieve"]), len(runs["Sieve200"]), 2*perConn, perConn, perConn)
	}
}

// TestTracedDeadlockVerifiesOnClient: a traced Listing 1 session's
// trace is checkable where it lands. The client decodes it, and the
// offline verifier re-walks the one deadlock cycle from it.
func TestTracedDeadlockVerifiesOnClient(t *testing.T) {
	f := frontWith(t, Config{})
	defer f.Shutdown(context.Background())
	c, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Submit(t.Context(), SubmitRequest{Workload: "Deadlock", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if s.Verdict() != serve.VerdictDeadlock {
		t.Fatalf("verdict %q, want deadlock", s.Verdict())
	}
	evs, err := trace.ReadAll(bytes.NewReader(s.Trace()))
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	rep := trace.Verify(evs)
	if !rep.Consistent() || !rep.Complete || rep.Deadlocks != 1 {
		t.Fatalf("client-side verdict %s, problems %q; want one deadlock, consistent", rep.Summary(), rep.Problems)
	}
	for _, a := range rep.Alarms {
		if a.Class == trace.AlarmDeadlock && !a.CycleVerified {
			t.Fatalf("deadlock alarm %+v did not re-verify", a)
		}
	}
	t.Log(rep.Summary())
}

// TestOversizedTraceVerdictIsCut: a traced Sieve small session with a
// window of every event it emits is past the frame cap the client's
// reader enforces. The front must not write that frame: the verdict
// arrives with the newest events that fit, behind one gap record
// counting the rest, which the verifier reads as incomplete. The
// untraced sessions sharing the conn complete, and the conn still
// carries a session submitted afterwards.
func TestOversizedTraceVerdictIsCut(t *testing.T) {
	f := frontWith(t, Config{TraceCap: 1 << 20,
		Serve: []serve.Option{serve.WithMaxSessions(2), serve.WithQueueDepth(8)}})
	defer f.Shutdown(context.Background())
	c, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	traced, err := c.Submit(t.Context(), SubmitRequest{Workload: "Sieve", Scale: "small", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var others []*RemoteSession
	for i := 0; i < 4; i++ {
		s, err := c.Submit(t.Context(), SubmitRequest{Workload: "QSort", Scale: "small"})
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, s)
	}
	if err := traced.Wait(); err != nil {
		t.Fatalf("traced Sieve: %v", err)
	}
	for i, s := range others {
		if err := s.Wait(); err != nil {
			t.Fatalf("session %d on the same conn: %v", i, err)
		}
	}
	tr := traced.Trace()
	if len(tr) > maxFrameBody {
		t.Fatalf("trace of %d bytes is past the %d-byte frame cap", len(tr), maxFrameBody)
	}
	evs, err := trace.ReadAll(bytes.NewReader(tr))
	if err != nil {
		t.Fatalf("cut trace does not decode: %v", err)
	}
	gaps := 0
	for _, e := range evs {
		if e.Kind == trace.KindGap {
			gaps++
		}
	}
	if len(evs) < 2 || evs[0].Kind != trace.KindGap || gaps != 1 {
		t.Fatalf("cut trace of %d events has %d gap records, want exactly one, leading", len(evs), gaps)
	}
	// Seq numbers run 1..N with no holes, and the run-end record is last.
	if g, last := evs[0], evs[len(evs)-1]; last.Kind != trace.KindRunEnd || g.Arg != last.Seq-uint64(len(evs)-1) {
		t.Fatalf("gap counts %d, last record %v #%d: want the %d events before the window", g.Arg, last.Kind, last.Seq, last.Seq-uint64(len(evs)-1))
	}
	rep := trace.Verify(evs)
	if rep.Complete || len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "replay checks skipped") ||
		!strings.Contains(rep.Summary(), "verdict=INCOMPLETE") {
		t.Fatalf("cut trace: %s %q, want INCOMPLETE with only replay checks skipped", rep.Summary(), rep.Problems)
	}
	t.Logf("verdict trace %d bytes, %d events kept, %d cut", len(tr), len(evs)-1, evs[0].Arg)

	after, err := c.Submit(t.Context(), SubmitRequest{Workload: "QSort", Scale: "small"})
	if err != nil {
		t.Fatalf("submit after the oversized verdict: %v", err)
	}
	if err := after.Wait(); err != nil {
		t.Fatalf("session after the oversized verdict: %v", err)
	}
}

// TestBlockingBodyGetsEarlyAccept: a body that blocks must not hold its
// accept back, whether the front sends the accept at once or defers it
// to the completion hook behind a shortBody timer: a 200 ms sleep gets
// its accept well before its verdict, with one P and with two, on its
// first run and after it.
func TestBlockingBodyGetsEarlyAccept(t *testing.T) {
	const body = 200 * time.Millisecond
	reg := Registry{"Sleep": func(workloads.Scale) core.TaskFunc {
		return func(*core.Task) error { time.Sleep(body); return nil }
	}}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f := frontWith(t, Config{Registry: reg})
			defer f.Shutdown(context.Background())
			fw, fr := rawConn(t, f)
			for id := uint64(1); id <= 2; id++ {
				earlyAccept(t, fw, fr, id, "Sleep", body)
			}
		})
	}
}

// TestComputeBodyGetsEarlyAccept: the front defers a submit's accept to
// the completion hook only when the workload's last body ran for under
// shortBody. A no-op workload is marked short by running. A body that
// computes for 200 ms without blocking is never marked short, so its
// accept goes at once rather than waiting for the body or the shortBody
// timer: with one P and with two it arrives well before the verdict.
func TestComputeBodyGetsEarlyAccept(t *testing.T) {
	const body = 200 * time.Millisecond
	reg := Registry{
		"Noop": func(workloads.Scale) core.TaskFunc { return func(*core.Task) error { return nil } },
		"Spin": func(workloads.Scale) core.TaskFunc {
			return func(*core.Task) error {
				for start := time.Now(); time.Since(start) < body; {
				}
				return nil
			}
		},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f := frontWith(t, Config{Registry: reg})
			defer f.Shutdown(context.Background())
			short := func(workload string) bool { return f.short[workload][workloads.ScaleDefault].Load() }
			fw, fr := rawConn(t, f)
			if short("Noop") || short("Spin") {
				t.Fatal("a workload that never ran is marked short")
			}
			// A no-op body runs for tens of microseconds, but the race
			// detector can stretch one run past shortBody.
			id := uint64(1)
			for ; !short("Noop"); id++ {
				if id > 20 {
					t.Fatal("20 no-op bodies ran and none was marked short")
				}
				earlyAccept(t, fw, fr, id, "Noop", 0)
			}
			for end := id + 2; id < end; id++ {
				earlyAccept(t, fw, fr, id, "Spin", body)
				if short("Spin") {
					t.Fatalf("a %v compute body is marked short", body)
				}
			}
		})
	}
}

// rawConn dials f and completes the handshake as tenant gold.
func rawConn(t *testing.T, f *Front) (*frameWriter, *frameReader) {
	t.Helper()
	nc, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	fw := &frameWriter{w: nc}
	fr := newFrameReader(nc)
	if err := fw.send(frameHello, helloMsg{Version: ProtocolVersion, Key: "gold-key"}.appendBody); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := fr.read(); err != nil || typ != frameHelloAck {
		t.Fatalf("handshake: frame %d, %v", typ, err)
	}
	return fw, fr
}

// earlyAccept submits one session of workload, whose body takes body,
// and reads its accept and verdict. It fails t unless the accept arrives
// at least body/2 before the verdict.
func earlyAccept(t *testing.T, fw *frameWriter, fr *frameReader, id uint64, workload string, body time.Duration) {
	t.Helper()
	start := time.Now()
	if err := fw.send(frameSubmit, submitMsg{ID: id, Workload: workload}.appendBody); err != nil {
		t.Fatal(err)
	}
	var at [2]time.Duration
	for i, want := range []byte{frameAccept, frameVerdict} {
		typ, _, err := fr.read()
		if err != nil || typ != want {
			t.Fatalf("%s #%d frame %d: type %d, %v; want %d", workload, id, i, typ, err, want)
		}
		at[i] = time.Since(start)
	}
	t.Logf("%s #%d: accept after %v, verdict after %v", workload, id, at[0], at[1])
	if at[1] < body || at[1]-at[0] < body/2 {
		t.Fatalf("%s #%d: accept after %v, verdict after %v: want the accept at least %v before a verdict that takes %v",
			workload, id, at[0], at[1], body/2, body)
	}
}

// TestMergedWriteFailureSpillsVerdict: a session that finished before
// anything sent its accept sends its accept and verdict in one write.
// When that write times out on a stalled client, the verdict lands in
// the spill log under the session's name and the conn is cut; when it
// succeeds, front_verdicts_with_accept_total counts it. A session
// submitted through handleSubmit is named "<tenant>/<workload>#<id>".
func TestMergedWriteFailureSpillsVerdict(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Install(reg)
	t.Cleanup(func() { obs.Install(nil) })
	noop := func(workloads.Scale) core.TaskFunc { return func(*core.Task) error { return nil } }
	f := &Front{reg: Registry{"Noop": noop}, pool: serve.New(), conns: make(map[*frontConn]struct{})}
	defer f.pool.Close()
	conn := func(timeout time.Duration) (*frontConn, net.Conn) {
		server, client := net.Pipe()
		t.Cleanup(func() { client.Close() })
		return &frontConn{
			f:        f,
			nc:       server,
			fw:       &frameWriter{w: server, nc: server, timeout: timeout},
			tenant:   "gold",
			inflight: make(map[uint64]context.CancelCauseFunc),
		}, client
	}
	// merged runs one session whose accept nothing has sent, so its
	// completion hook writes the accept and the verdict together on c.
	merged := func(c *frontConn, id uint64) {
		t.Helper()
		pv := &pendingVerdict{c: c, id: id, name: fmt.Sprintf("gold/Noop#%d", id), cancel: func(error) {}}
		pv.refs.Store(1)
		f.sessWG.Add(1)
		if _, err := f.pool.Submit(t.Context(), pv.name, noop(workloads.ScaleSmall), serve.WithOnDone(pv.turn)); err != nil {
			t.Fatal(err)
		}
		f.sessWG.Wait()
	}
	counted := func() int64 {
		return reg.Snapshot().Counters["front_verdicts_with_accept_total"]
	}

	stalled, client := conn(50 * time.Millisecond)
	merged(stalled, 7)
	spilled := f.Spilled()
	if len(spilled) != 1 || spilled[0].Session != "gold/Noop#7" || spilled[0].Verdict != "clean" ||
		!strings.Contains(spilled[0].Cause, "timed out") || spilled[0].AcceptSent {
		t.Fatalf("spill log %+v, want the clean verdict of gold/Noop#7, spilled on a write timeout with no accept sent", spilled)
	}
	if n := counted(); n != 0 {
		t.Fatalf("a failed merged write counted %d verdicts sent with their accept", n)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 16)); err == nil {
		t.Fatal("stalled client's conn still open")
	}

	live, client := conn(0)
	frames := make(chan byte, 2)
	go func() {
		fr := newFrameReader(client)
		for {
			typ, _, err := fr.read()
			if err != nil {
				close(frames)
				return
			}
			frames <- typ
		}
	}()
	merged(live, 8)
	if a, v := <-frames, <-frames; a != frameAccept || v != frameVerdict {
		t.Fatalf("merged frames %d, %d; want accept then verdict", a, v)
	}
	if n := counted(); n != 1 {
		t.Fatalf("front_verdicts_with_accept_total = %d after one merged write, want 1", n)
	}

	// Whoever sends the accept, a verdict the stalled pipe cannot take is
	// spilled under the name handleSubmit built.
	named, _ := conn(50 * time.Millisecond)
	named.handleSubmit(submitMsg{ID: 42, Workload: "Noop"})
	f.sessWG.Wait()
	if spilled := f.Spilled(); len(spilled) != 2 || spilled[1].Session != "gold/Noop#42" {
		t.Fatalf("spill log %+v, want a second entry for gold/Noop#42", spilled)
	}
}

// TestMergedOversizedVerdictSplits: a finished session whose verdict is
// too large for a frame cannot share the accept's write. deliver cuts a
// trace to fit, so only an outsized error text makes such a verdict. The
// accept goes out alone, and the verdict is spilled with AcceptSent set.
func TestMergedOversizedVerdictSplits(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	c := &frontConn{f: &Front{}, nc: server, fw: &frameWriter{w: server}, tenant: "gold"}
	pv := &pendingVerdict{c: c, id: 3, name: "gold/Sieve#3"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pv.write(verdictMsg{ID: 3, Verdict: "failed", Err: strings.Repeat("x", maxFrameBody)}, true)
	}()

	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(client)
	typ, body, err := fr.read()
	var a acceptMsg
	if err != nil || typ != frameAccept || a.decode(body) != nil || a.ID != 3 {
		t.Fatalf("first frame: type %d, %+v, %v; want accept 3", typ, a, err)
	}
	<-done
	spilled := c.f.Spilled()
	if len(spilled) != 1 || spilled[0].Session != "gold/Sieve#3" || !spilled[0].AcceptSent ||
		!strings.Contains(spilled[0].Cause, "frame length out of range") {
		t.Fatalf("spill log %+v, want gold/Sieve#3 spilled as oversized after its accept", spilled)
	}
}

// TestMergedOversizedAcceptFailureSpills: when a finished session's
// verdict is too large to share its accept's write and the accept, sent
// alone, times out, the verdict is spilled at once. Nothing follows onto
// a stream that may hold part of the accept.
func TestMergedOversizedAcceptFailureSpills(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	w := &countingWriter{w: server}
	c := &frontConn{f: &Front{}, nc: server, fw: &frameWriter{w: w, nc: server, timeout: 50 * time.Millisecond}, tenant: "gold"}
	trace := bytes.Repeat([]byte("event line\n"), maxFrameBody/8)
	pv := &pendingVerdict{c: c, id: 3, name: "gold/Sieve#3"}
	pv.write(verdictMsg{ID: 3, Verdict: "clean", Trace: trace}, true)
	if w.writes != 1 {
		t.Fatalf("%d writes, want one: the accept's", w.writes)
	}
	spilled := c.f.Spilled()
	if len(spilled) != 1 || spilled[0].Session != "gold/Sieve#3" || spilled[0].AcceptSent ||
		!strings.Contains(spilled[0].Cause, "timed out") {
		t.Fatalf("spill log %+v, want gold/Sieve#3 spilled on the accept's write timeout", spilled)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(client); err != nil {
		t.Fatalf("conn not cut after the accept's write timeout: %v", err)
	}
}

// countingWriter counts the Write calls it passes on to w.
type countingWriter struct {
	w      io.Writer
	writes int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.writes++
	return cw.w.Write(p)
}
