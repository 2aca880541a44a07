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
		{"all breakers open", errBreakersOpen, true},
		{"dial refused", &net.OpError{Op: "dial", Err: errors.New("connection refused")}, true},
		{"deadline infeasible", fmt.Errorf("rejected: %w", serve.ErrDeadlineInfeasible), false},
		{"handshake refused", fmt.Errorf("%w: unknown API key", ErrRefused), false},
		{"budget exhausted", fmt.Errorf("%w (last: x)", ErrRetryBudget), false},
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

// TestBackoffBounds: full jitter stays inside [0, min(MaxDelay,
// Base<<n)) and the cap saturates instead of overflowing.
func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ { // 64 shifts: far past overflow
		cap := time.Duration(10*time.Millisecond) << (n - 1)
		if cap > 80*time.Millisecond || cap <= 0 {
			cap = 80 * time.Millisecond
		}
		for i := 0; i < 32; i++ {
			if d := p.backoff(n, rng); d < 0 || d >= cap {
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
// answers pings is declared dead after HeartbeatMisses intervals, and
// the pending submission fails with both the heartbeat cause and the
// connection-lost sentinel.
func TestHeartbeatDeclaresDeadServer(t *testing.T) {
	addr := silentServer(t, func(nc net.Conn) {
		// Read and discard everything (keeps buffers empty), answer nothing.
		io.Copy(io.Discard, nc)
	})
	c, err := DialOpts(addr, "k", DialOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   3,
	})
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
		c.deliverVerdict("t/Sieve#1", verdictMsg{ID: 1, Verdict: "clean"})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deliverVerdict wedged on a stalled client")
	}
	spilled := f.Spilled()
	if len(spilled) != 1 {
		t.Fatalf("spilled = %d entries, want 1", len(spilled))
	}
	sv := spilled[0]
	if sv.Session != "t/Sieve#1" || sv.Verdict != "clean" || sv.Tenant != "t" {
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

// TestBreakerOpensAndHalfOpens: consecutive dial failures open the
// endpoint's breaker; while open, attempts fail with errBreakersOpen
// (retryable, no dial); after the cooldown one half-open probe is
// allowed.
func TestBreakerOpensAndHalfOpens(t *testing.T) {
	// A listener that is closed immediately: dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	r, err := DialResilient([]string{dead}, "k", RetryPolicy{
		MaxAttempts:      2,
		BaseDelay:        time.Millisecond,
		MaxDelay:         2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no probe during this test
	}, DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("retryable startup failure should not fail DialResilient: %v", err)
	}
	defer r.Close()

	// Startup dialed once (fail 1). One Submit dials again (fail 2) →
	// breaker opens at threshold 2.
	if _, err := r.Submit(context.Background(), SubmitRequest{Workload: "Sieve"}); err == nil {
		t.Fatal("submit succeeded with no server")
	}
	if got := r.Breaker(dead); got != BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}
	// With the only breaker open and the cooldown far away, the failure
	// is classified breakers-open — and costs no dial.
	_, err = r.Submit(context.Background(), SubmitRequest{Workload: "Sieve"})
	if !errors.Is(err, errBreakersOpen) {
		t.Fatalf("submit err = %v, want errBreakersOpen in the chain", err)
	}

	// Cooldown elapse → exactly one half-open probe is admitted.
	r.mu.Lock()
	br := r.breakers[dead]
	br.openedAt = time.Now().Add(-2 * time.Hour)
	admitted := br.admit(time.Now(), time.Hour)
	state := br.state
	second := br.admit(time.Now(), time.Hour)
	r.mu.Unlock()
	if !admitted || state != BreakerHalfOpen {
		t.Fatalf("cooldown-elapsed admit = %v state %v, want probe in half-open", admitted, state)
	}
	if second {
		t.Fatal("second probe admitted while one is in flight")
	}
}

// TestFailoverToHealthyEndpoint: with one dead and one live endpoint,
// the client fails over and serves; the dead endpoint's breaker has
// booked the failure.
func TestFailoverToHealthyEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	f := newTestFront(t)
	defer f.Shutdown(context.Background())

	r, err := DialResilient([]string{dead, f.Addr()}, "gold-key", RetryPolicy{
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}, DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := r.Submit(context.Background(), SubmitRequest{Workload: "Sieve"})
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	if s.Verdict() != serve.VerdictClean {
		t.Fatalf("verdict = %v, want clean", s.Verdict())
	}
	if got := r.Breaker(f.Addr()); got != BreakerClosed {
		t.Fatalf("live endpoint breaker = %v, want closed", got)
	}
}

// TestRetryBudgetExhausts: a persistent fault drains the client-wide
// budget and submissions then fail fast with the terminal
// ErrRetryBudget — the anti-retry-storm brake.
func TestRetryBudgetExhausts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	r, err := DialResilient([]string{dead}, "k", RetryPolicy{
		MaxAttempts: 100,
		Budget:      2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		// Threshold high enough that the breaker never opens here: this
		// test isolates the budget brake.
		BreakerThreshold: 1000,
	}, DialOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Submit(context.Background(), SubmitRequest{Workload: "Sieve"})
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("submit err = %v, want ErrRetryBudget", err)
	}
	if Retryable(err) {
		t.Fatal("budget exhaustion must be terminal, not retryable")
	}
	if got := r.Budget(); got != 0 {
		t.Fatalf("budget = %d, want 0", got)
	}
}

// TestRetryThroughInjectedSaturation: the pool's chaos hook forces
// saturation rejections at rate 0.5; the resilient client retries
// through them to a real verdict, and the budget refunds on success.
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

	r, err := DialResilient([]string{f.Addr()}, "k", RetryPolicy{
		MaxAttempts: 30, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

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
	// Each success refunds ONE token (a submission that needed several
	// retries still nets negative — deliberate: sustained flakiness must
	// drain the budget). The budget is spent but nowhere near dry.
	if got := r.Budget(); got <= 0 || got > r.policy.budget() {
		t.Fatalf("budget = %d, want in (0, %d]", got, r.policy.budget())
	}
	// Refund clamps at the cap.
	r.refund()
	r.refund()
	for i := r.Budget(); i < r.policy.budget(); i++ {
		r.refund()
	}
	r.refund()
	if got := r.Budget(); got != r.policy.budget() {
		t.Fatalf("refund past cap: budget = %d, want %d", got, r.policy.budget())
	}
}

// TestShutdownVsReconnectRace is the drain-race satellite: a resilient
// client retrying through a Front.Shutdown must end every Submit in a
// typed terminal outcome — goaway/draining/conn-lost classified errors
// or a late success — never a hung dial.
func TestShutdownVsReconnectRace(t *testing.T) {
	f := newTestFront(t)
	r, err := DialResilient([]string{f.Addr()}, "gold-key", RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
	}, DialOptions{DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

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
				s, err := r.Submit(ctx, SubmitRequest{Workload: "Sieve"})
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
		// dial failure (net.Error), breaker, or the caller's own timeout.
		// An untyped error here would mean a failure the retry layer
		// cannot classify.
		switch {
		case errors.Is(err, serve.ErrPoolClosed),
			errors.Is(err, errBreakersOpen),
			errors.Is(err, ErrRetryBudget),
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
