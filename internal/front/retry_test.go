package front

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// TestRetryableClassification pins the retry classification table: the
// split between transient-shaped failures (retry can succeed without
// duplicating a session) and terminal ones.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"pool saturated", fmt.Errorf("rejected: %w", serve.ErrPoolSaturated), true},
		{"conn lost", fmt.Errorf("front: connection lost: %w", serve.ErrPoolClosed), true},
		{"write timeout", fmt.Errorf("%w after 1s", ErrWriteTimeout), true},
		{"heartbeat expiry", fmt.Errorf("%w: 3 pings", ErrHeartbeat), true},
		{"injected fault", fmt.Errorf("%w: reset", chaos.ErrInjected), true},
		{"dial refused", &net.OpError{Op: "dial", Err: errors.New("connection refused")}, true},
		{"deadline infeasible", fmt.Errorf("rejected: %w", serve.ErrDeadlineInfeasible), false},
		{"handshake refused", fmt.Errorf("%w: unknown API key", ErrRefused), false},
		{"caller canceled", context.Canceled, false},
		{"caller deadline", context.DeadlineExceeded, false},
		{"unknown workload", errors.New("front: rejected (unknown_workload): no such workload"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBackoffBounds: full jitter stays inside [0, min(max, base<<n))
// and the cap saturates instead of overflowing.
func TestBackoffBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ { // 64 shifts: far past overflow
		cap := time.Duration(10*time.Millisecond) << (n - 1)
		if cap > 80*time.Millisecond || cap <= 0 {
			cap = 80 * time.Millisecond
		}
		for i := 0; i < 32; i++ {
			if d := backoff(n, 10*time.Millisecond, 80*time.Millisecond, rng); d < 0 || d >= cap {
				t.Fatalf("backoff(%d) = %v outside [0, %v)", n, d, cap)
			}
		}
	}
}

// silentServer accepts one conn, completes the hello/helloAck
// handshake like a real front, then hands the conn to run.
func silentServer(t *testing.T, run func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				typ, body, err := newFrameReader(nc).read()
				var hello helloMsg
				if err != nil || typ != frameHello || hello.decode(body) != nil {
					nc.Close()
					return
				}
				fw := &frameWriter{w: nc}
				fw.send(frameHelloAck, helloAckMsg{Version: ProtocolVersion, Tenant: "t"}.appendBody)
				run(nc)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWriteDeadlineNeverReadingListener is the write-deadline satellite:
// a server that handshakes and then never reads again must fail a
// client's Submit with ErrWriteTimeout once the kernel buffers fill —
// not wedge it forever — and the connection is then fatal'd so later
// Submits fail fast.
func TestWriteDeadlineNeverReadingListener(t *testing.T) {
	addr := silentServer(t, func(nc net.Conn) {
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetReadBuffer(1 << 10)
		}
		// Never read again, but keep the conn open so writes stall
		// rather than fail with a reset. The close after the test ends
		// also keeps nc reachable until then: a conn nothing references
		// is finalized by the GC, which closes the socket under the
		// client.
		<-t.Context().Done()
		nc.Close()
	})
	c, err := DialOpts(addr, "k", DialOptions{WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.SetWriteBuffer(1 << 10)
	}

	// Large submits fill the send buffer fast; each call either times
	// out waiting for the (never-coming) admission answer or — once the
	// buffers are full — times out in the WRITE, which is the error
	// under test.
	big := strings.Repeat("x", 1<<16)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := c.Submit(ctx, SubmitRequest{Workload: big})
		cancel()
		if errors.Is(err, ErrWriteTimeout) {
			// The write deadline fired; the conn must now be fatal'd:
			// the next Submit fails fast with connection-lost, no 200ms
			// stall.
			_, err := c.Submit(context.Background(), SubmitRequest{Workload: "Sieve"})
			if !errors.Is(err, serve.ErrPoolClosed) {
				t.Fatalf("post-timeout Submit = %v, want conn-lost (ErrPoolClosed)", err)
			}
			return
		}
		if err == nil {
			t.Fatal("submit succeeded against a never-reading server")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			// Only the admission wait's own deadline may repeat the loop;
			// anything else (a reset, a lost conn) would spin here until
			// the outer deadline without ever reaching the write timeout.
			t.Fatalf("submit = %v, want the admission deadline or ErrWriteTimeout", err)
		}
	}
	t.Fatal("write deadline never fired against a never-reading server")
}

// TestHeartbeatDeclaresDeadServer: a server that reads frames but never
// answers pings is declared dead after heartbeatMisses intervals, and
// the pending submission fails with both the heartbeat cause and the
// connection-lost sentinel.
func TestHeartbeatDeclaresDeadServer(t *testing.T) {
	addr := silentServer(t, func(nc net.Conn) {
		// Read and discard everything (keeps buffers empty), answer nothing.
		io.Copy(io.Discard, nc)
	})
	c, err := DialOpts(addr, "k", DialOptions{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Submit(context.Background(), SubmitRequest{Workload: "Sieve"})
	if !errors.Is(err, ErrHeartbeat) {
		t.Fatalf("Submit err = %v, want ErrHeartbeat in the chain", err)
	}
	if !errors.Is(err, serve.ErrPoolClosed) {
		t.Fatalf("Submit err = %v, want ErrPoolClosed in the chain", err)
	}
	if got := c.Stats().HeartbeatsMissed; got < 3 {
		t.Fatalf("HeartbeatsMissed = %d, want >= 3", got)
	}
}

// TestIdleReaperVsHeartbeats: the server-side idle reaper cuts a silent
// client and spares a heartbeating one — pings are proof of life.
func TestIdleReaperVsHeartbeats(t *testing.T) {
	f, err := New(Config{
		Addr:        "127.0.0.1:0",
		Keys:        map[string]string{"k": "t"},
		IdleTimeout: 120 * time.Millisecond,
		Serve:       []serve.Option{serve.WithMaxSessions(2), serve.WithQueueDepth(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())

	silent, err := Dial(f.Addr(), "k")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	beating, err := DialOpts(f.Addr(), "k", DialOptions{HeartbeatInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer beating.Close()

	// Well past the idle timeout (several windows, so the reap has
	// certainly happened).
	time.Sleep(400 * time.Millisecond)

	if _, err := beating.Submit(context.Background(), SubmitRequest{Workload: "Sieve"}); err != nil {
		t.Fatalf("heartbeating client was reaped: %v", err)
	}
	select {
	case <-silent.readDone:
		// Reaped, as required.
	case <-time.After(5 * time.Second):
		t.Fatal("silent client survived the idle reaper")
	}
	if _, err := silent.Submit(context.Background(), SubmitRequest{Workload: "Sieve"}); !errors.Is(err, serve.ErrPoolClosed) {
		t.Fatalf("reaped client's Submit = %v, want conn-lost", err)
	}
}

// TestSlowClientEvictionSpillsVerdict pins the never-silently-dropped
// contract at the delivery seam: a verdict write that misses the write
// deadline (net.Pipe blocks writes until the peer reads — the perfect
// stalled client) lands in the spill log, bumps the eviction counter,
// and cuts the conn.
func TestSlowClientEvictionSpillsVerdict(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	f := &Front{conns: make(map[*frontConn]struct{})}
	c := &frontConn{
		f:      f,
		nc:     server,
		fw:     &frameWriter{w: server, nc: server, timeout: 80 * time.Millisecond},
		tenant: "t",
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		pv := &pendingVerdict{c: c, id: 1, name: "t/Sieve#1", acceptSent: true}
		pv.write(verdictMsg{ID: 1, Verdict: "clean"}, false)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("verdict write wedged on a stalled client")
	}
	spilled := f.Spilled()
	if len(spilled) != 1 {
		t.Fatalf("spilled = %d entries, want 1", len(spilled))
	}
	sv := spilled[0]
	if sv.Session != "t/Sieve#1" || sv.Verdict != "clean" || sv.Tenant != "t" || !sv.AcceptSent {
		t.Fatalf("spilled entry = %+v", sv)
	}
	if !strings.Contains(sv.Cause, "timed out") {
		t.Fatalf("spill cause %q does not name the timeout", sv.Cause)
	}
	// The conn was cut: a peer read completes with an error now.
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := client.Read(buf); err == nil {
		t.Fatal("evicted client's conn still open")
	}
}

// TestSpillLogBounded: the spill log keeps the newest spillCap entries.
func TestSpillLogBounded(t *testing.T) {
	f := &Front{}
	for i := 0; i < spillCap+10; i++ {
		f.spill(SpilledVerdict{Session: fmt.Sprintf("s#%d", i)})
	}
	got := f.Spilled()
	if len(got) != spillCap {
		t.Fatalf("spill log = %d entries, want %d", len(got), spillCap)
	}
	if got[0].Session != "s#10" || got[len(got)-1].Session != fmt.Sprintf("s#%d", spillCap+9) {
		t.Fatalf("spill log kept wrong window: first %q last %q", got[0].Session, got[len(got)-1].Session)
	}
}

// TestRetryThroughInjectedSaturation: the pool's chaos hook forces
// saturation rejections at rate 0.5; the resilient client retries
// through them to a real verdict.
func TestRetryThroughInjectedSaturation(t *testing.T) {
	in := chaos.New(11).SetRate(chaos.PoolSaturate, 0.5)
	f, err := New(Config{
		Addr: "127.0.0.1:0",
		Keys: map[string]string{"k": "t"},
		Serve: []serve.Option{
			serve.WithMaxSessions(4), serve.WithQueueDepth(8), serve.WithChaos(in),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())

	r, err := DialResilient(f.Addr(), "k", DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.attempts, r.base, r.max = 30, time.Millisecond, 5*time.Millisecond

	for i := 0; i < 8; i++ {
		s, err := r.Submit(context.Background(), SubmitRequest{Workload: "Sieve"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if s.Wait(); s.Verdict() != serve.VerdictClean {
			t.Fatalf("submit %d verdict = %v", i, s.Verdict())
		}
	}
	if in.Counts()["pool_saturate"] == 0 {
		t.Fatal("injector never fired — the test exercised nothing")
	}
	if r.Retries() == 0 {
		t.Fatal("no retries counted through injected saturation")
	}
}

// TestShutdownVsReconnectRace is the drain-race satellite: a resilient
// client retrying through a Front.Shutdown must end every Submit in a
// typed terminal outcome — goaway/draining/conn-lost classified errors
// or a late success — never a hung dial.
func TestShutdownVsReconnectRace(t *testing.T) {
	f := newTestFront(t)
	r, err := DialResilient(f.Addr(), "gold-key", DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.attempts, r.base, r.max = 3, time.Millisecond, 10*time.Millisecond

	// Submissions race the drain from both sides of its start.
	var wg sync.WaitGroup
	var resMu sync.Mutex
	var results []error
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				s, err := r.Submit(ctx, SubmitRequest{Workload: "Sieve", Scale: "small"})
				if err == nil {
					s.Wait()
				}
				cancel()
				resMu.Lock()
				results = append(results, err)
				resMu.Unlock()
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	if err := f.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let retries hit the dead address
	close(stop)
	wg.Wait()

	sawTerminal := false
	for _, err := range results {
		if err == nil {
			continue
		}
		// Typed: drain rejection/conn loss (ErrPoolClosed in the chain),
		// dial failure (net.Error), or the caller's own timeout.
		// An untyped error here would mean a failure the retry layer
		// cannot classify.
		switch {
		case errors.Is(err, serve.ErrPoolClosed),
			errors.Is(err, context.DeadlineExceeded):
			sawTerminal = true
		default:
			var ne net.Error
			if !errors.As(err, &ne) {
				t.Fatalf("untyped submit error during drain: %v", err)
			}
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("race produced no post-shutdown submissions; widen the window")
	}
}

// TestOneConnDeathRetriesEveryInFlightSubmit: one connection death
// fails every submission in flight on it at once. That is one fault of
// one connection, so it must cost each submission one retry: every one
// is accepted on the single redialled connection and returns a clean
// verdict.
func TestOneConnDeathRetriesEveryInFlightSubmit(t *testing.T) {
	const inflight = 8
	f := newTestFront(t)
	defer f.Shutdown(context.Background())

	// The first connection handshakes, reads inflight submit frames
	// without answering any, and dies. Every later one is piped to f.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int32
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if conns.Add(1) == 1 {
				go swallowSubmitsThenDie(nc, inflight)
				continue
			}
			go pipeTo(nc, f.Addr())
		}
	}()

	r, err := DialResilient(ln.Addr().String(), "gold-key", DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := r.Submit(ctx, SubmitRequest{Workload: "Sieve", Scale: "small"})
			if err != nil {
				errs <- fmt.Errorf("submit: %w", err)
				return
			}
			if err := s.Wait(); err != nil || s.Verdict() != serve.VerdictClean {
				errs <- fmt.Errorf("verdict %v, err %v; want clean", s.Verdict(), err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := conns.Load(); got != 2 {
		t.Errorf("connections = %d, want 2: the dead one and one redial", got)
	}
	if got := r.Retries(); got != inflight {
		t.Errorf("retries = %d, want %d: one per submission the death failed", got, inflight)
	}
}

// swallowSubmitsThenDie completes the handshake like a real front,
// reads n submit frames without answering, then closes the conn.
func swallowSubmitsThenDie(nc net.Conn, n int) {
	defer nc.Close()
	fr := newFrameReader(nc)
	typ, body, err := fr.read()
	var hello helloMsg
	if err != nil || typ != frameHello || hello.decode(body) != nil {
		return
	}
	fw := &frameWriter{w: nc}
	fw.send(frameHelloAck, helloAckMsg{Version: ProtocolVersion, Tenant: "gold"}.appendBody)
	for n > 0 {
		typ, _, err := fr.read()
		if err != nil {
			return
		}
		if typ == frameSubmit {
			n--
		}
	}
}

// pipeTo relays nc to a fresh connection to addr until either side
// closes.
func pipeTo(nc net.Conn, addr string) {
	defer nc.Close()
	up, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	go func() {
		io.Copy(up, nc)
		up.Close()
	}()
	io.Copy(nc, up)
}
