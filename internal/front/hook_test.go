package front

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
// returned event log must be its session's retained window, rendered.
// Sieve small emits about 100k events, so only the tail of its trace is
// retained (TraceCap 4096), behind one gap record counting the rest, and
// trace.Verify must call it incomplete rather than invalid; Sieve over
// 200 numbers (about 3k events) is retained whole, and its trace must
// pass trace.Verify.
func TestTracedSieveOverFront(t *testing.T) {
	const perConn = 6
	var (
		mu    sync.Mutex
		runs  = map[string][]*core.Runtime{}
		progs = map[string]func(workloads.Scale) core.TaskFunc{
			"Sieve":    DefaultRegistry()["Sieve"],
			"Sieve200": func(workloads.Scale) core.TaskFunc { return sieve.Main(sieve.Config{N: 200}) },
		}
	)
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
	f := frontWith(t, Config{Registry: reg, Serve: []serve.Option{serve.WithMaxSessions(2), serve.WithQueueDepth(perConn)}})
	defer f.Shutdown(context.Background())

	logs := make(chan string, 2*perConn)
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
				logs <- string(s.Trace())
			}
		}()
	}
	wg.Wait()
	close(logs)

	if d := f.Pool().Stats().EventsDropped; d != 0 {
		t.Fatalf("%d trace events dropped", d)
	}
	rendered := map[string]bool{}
	for name, rts := range runs {
		for _, rt := range rts {
			evs := rt.Events()
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
			rendered[rt.EventLog()] = true
		}
	}
	returned := 0
	for log := range logs {
		if log == "" || !rendered[log] {
			t.Fatalf("returned trace is not a session's retained event log (%d bytes)", len(log))
		}
		returned++
	}
	if returned != 2*perConn || len(runs["Sieve"]) != perConn || len(runs["Sieve200"]) != perConn {
		t.Fatalf("%d traces returned, sessions run %d Sieve small and %d Sieve200; want %d, %d, %d",
			returned, len(runs["Sieve"]), len(runs["Sieve200"]), 2*perConn, perConn, perConn)
	}
}

// TestOversizedTraceVerdictIsCut: a traced Sieve small session with a
// 65536-event window renders a log of about 3.5 MB, past the frame cap
// the client's reader enforces. The front must not write that frame: the
// verdict arrives with the trace's tail behind one line saying how many
// bytes were cut, the untraced sessions sharing the conn complete, and
// the conn still carries a session submitted afterwards.
func TestOversizedTraceVerdictIsCut(t *testing.T) {
	f := frontWith(t, Config{TraceCap: 65536,
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
	head, tail, ok := bytes.Cut(tr, []byte("\n"))
	var cut int
	if !ok || len(tail) == 0 {
		t.Fatalf("trace has no events after its first line %q", head)
	}
	if _, err := fmt.Sscanf(string(head), strings.TrimSuffix(cutTraceNote, "\n"), &cut); err != nil || cut <= 0 {
		t.Fatalf("first trace line %q does not say how many bytes were cut (%v)", head, err)
	}
	t.Logf("verdict trace %d bytes, %d bytes cut", len(tr), cut)

	after, err := c.Submit(t.Context(), SubmitRequest{Workload: "QSort", Scale: "small"})
	if err != nil {
		t.Fatalf("submit after the oversized verdict: %v", err)
	}
	if err := after.Wait(); err != nil {
		t.Fatalf("session after the oversized verdict: %v", err)
	}
}
