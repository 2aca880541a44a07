package front

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// handshakeTimeout bounds how long a fresh conn may sit before its hello
// arrives — an unauthenticated socket must not pin a goroutine forever.
const handshakeTimeout = 5 * time.Second

// defaultTraceCap is the per-session event-log retention for sessions
// that request trace bytes.
const defaultTraceCap = 4096

// defaultServerWriteTimeout bounds every server frame write unless
// Config.WriteTimeout overrides it. Generous on purpose: it only has to
// distinguish a wedged client (dead TCP window for 30 s straight) from
// a slow one.
const defaultServerWriteTimeout = 30 * time.Second

// spillCap bounds the front's spilled-verdict log. The log exists so an
// evicted slow client's verdicts are observable, not silently dropped;
// past the cap the oldest entries go (the counter still counts).
const spillCap = 1024

// Config configures a Front. The serving pool behind it is configured
// through the same serve.Option family Pool construction uses — the
// front adds only what the network edge needs: an address, the API-key
// to tenant map, and the workload registry.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// test port).
	Addr string
	// Keys maps API keys (sent in the hello frame) to fairness tenant
	// names. A key's tenant gets the weight configured for it via
	// serve.WithTenantWeight in Serve. Empty means no remote caller can
	// authenticate.
	Keys map[string]string
	// Registry maps wire workload names to programs; nil selects
	// DefaultRegistry (the benchmark table plus "Deadlock").
	Registry Registry
	// Serve is the pool-scope option list for the front's serving pool —
	// the shared options surface: sizing, tenant weights, deadline
	// admission, base runtime options all configure here exactly as they
	// would for a local serve.New.
	Serve []serve.Option
	// TraceCap is the event-log retention for sessions submitted with
	// Trace; <= 0 selects 4096.
	TraceCap int
	// IdleTimeout, when positive, reaps connections that send nothing
	// for that long. ANY inbound frame — pings included — counts as
	// proof of life, so a heartbeating client (DialOptions.
	// HeartbeatInterval below the timeout) never trips it. 0 disables
	// reaping (the PR 8 behavior).
	IdleTimeout time.Duration
	// WriteTimeout bounds every frame write to a client. A write that
	// misses it marks the client slow: the verdict (if one was being
	// delivered) is spilled to the front's spill log, the eviction is
	// counted, and the connection is cut. 0 selects 30 s; negative
	// disables the deadline.
	WriteTimeout time.Duration
	// Chaos, when non-nil, injects server-side faults: handshake drops
	// in the accept loop and connection faults (resets, delays, partial
	// writes) on every accepted conn. Nil in production.
	Chaos *chaos.Injector
}

// SpilledVerdict is a verdict the front computed but could not deliver
// because the client's connection stalled or died mid-write. Spilling
// is the "never silently dropped" half of slow-client eviction: the
// outcome stays observable (Front.Spilled, and the eviction counter)
// even though the wire could not carry it.
type SpilledVerdict struct {
	Tenant  string // fairness tenant of the owning connection
	Session string // server-side session name (tenant/workload#id)
	Verdict string // classified outcome that failed to deliver
	Err     string // session error text, if any
	Cause   string // why delivery failed (write timeout, conn gone)
}

// Front is the network serving front-end: it owns a listener, a serving
// pool, and one goroutine per connection plus one per in-flight session
// (the verdict waiter). New starts it; Shutdown drains it.
type Front struct {
	cfg  Config
	reg  Registry
	pool *serve.Pool
	ln   net.Listener

	mu       sync.Mutex
	draining bool
	conns    map[*frontConn]struct{}
	spilled  []SpilledVerdict // bounded by spillCap; oldest dropped first

	connWG sync.WaitGroup // connection handler goroutines
	sessWG sync.WaitGroup // verdict-waiter goroutines
	// sessDone is closed by the last verdict waiter during a drain.
	acceptDone chan struct{}
}

// frontConn is one authenticated client connection.
type frontConn struct {
	f      *Front
	nc     net.Conn
	fr     *frameReader
	fw     *frameWriter
	tenant string

	mu       sync.Mutex
	inflight map[uint64]context.CancelCauseFunc
}

// New creates a Front, binds its listener, and starts serving. The
// returned Front is live: clients can connect immediately. Call
// Shutdown to stop it; a Front holds its pool, listener, and goroutines
// until then.
func New(cfg Config) (*Front, error) {
	if cfg.Registry == nil {
		cfg.Registry = DefaultRegistry()
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = defaultTraceCap
	}
	switch {
	case cfg.WriteTimeout == 0:
		cfg.WriteTimeout = defaultServerWriteTimeout
	case cfg.WriteTimeout < 0:
		cfg.WriteTimeout = 0
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("front: listen %s: %w", cfg.Addr, err)
	}
	f := &Front{
		cfg:        cfg,
		reg:        cfg.Registry,
		pool:       serve.New(cfg.Serve...),
		ln:         ln,
		conns:      make(map[*frontConn]struct{}),
		acceptDone: make(chan struct{}),
	}
	go f.acceptLoop()
	return f, nil
}

// Addr returns the bound listen address (useful with ":0").
func (f *Front) Addr() string { return f.ln.Addr().String() }

// Pool exposes the serving pool behind the front, for stats and
// observation (serve.Pool.Stats / Observe).
func (f *Front) Pool() *serve.Pool { return f.pool }

func (f *Front) acceptLoop() {
	defer close(f.acceptDone)
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			return // listener closed: drain underway
		}
		// Chaos: a dropped handshake is a conn the server accepted and
		// immediately lost — the client sees a reset before any ack, the
		// canonical safe-to-retry failure.
		if f.cfg.Chaos.Fire(chaos.HandshakeDrop) {
			nc.Close()
			continue
		}
		nc = chaos.WrapConn(nc, f.cfg.Chaos)
		f.mu.Lock()
		if f.draining {
			f.mu.Unlock()
			nc.Close()
			continue
		}
		c := &frontConn{
			f:        f,
			nc:       nc,
			fr:       newFrameReader(nc),
			fw:       &frameWriter{w: nc, nc: nc, timeout: f.cfg.WriteTimeout},
			inflight: make(map[uint64]context.CancelCauseFunc),
		}
		f.conns[c] = struct{}{}
		f.connWG.Add(1)
		f.mu.Unlock()
		if m := fmet(); m != nil {
			m.connections.Inc()
		}
		go func() {
			defer f.connWG.Done()
			c.serve()
			f.mu.Lock()
			delete(f.conns, c)
			f.mu.Unlock()
		}()
	}
}

// serve runs one connection: handshake, then the submit/cancel read
// loop. Accept/reject frames are sent synchronously from this loop, so
// they reach the client in submission order and always precede the
// session's verdict frame (the verdict waiter can only start after the
// accept has been written).
func (c *frontConn) serve() {
	defer c.nc.Close()
	// When the read loop exits — client gone, or server cutting conns at
	// the end of a drain — nobody is left to receive verdicts: cancel
	// the conn's in-flight sessions so they do not run for a dead peer.
	defer c.cancelAll(errors.New("front: connection closed"))

	if err := c.handshake(); err != nil {
		return
	}
	// The idle reaper is a per-read deadline: every inbound frame —
	// submits, cancels, pings — re-arms it, so "idle" means the client
	// sent NOTHING for the whole window. Verdict traffic going out does
	// not count; a client must speak to stay connected.
	idle := c.f.cfg.IdleTimeout
	for {
		if idle > 0 {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		typ, body, err := c.fr.read()
		if err != nil {
			return
		}
		switch typ {
		case frameSubmit:
			var req submitMsg
			if err := req.decode(body); err != nil {
				return // corrupt stream: cut the conn
			}
			c.handleSubmit(req)
		case frameCancel:
			var req cancelMsg
			if err := req.decode(body); err != nil {
				return
			}
			c.mu.Lock()
			cancel := c.inflight[req.ID]
			c.mu.Unlock()
			if cancel != nil {
				cancel(context.Canceled)
			}
		case framePing:
			var msg pingMsg
			if err := msg.decode(body); err != nil {
				return
			}
			if c.fw.send(framePong, msg.appendBody) != nil {
				return
			}
		case framePong:
			// An answer to a ping we sent; receipt already re-armed the
			// idle deadline, nothing else to do.
		default:
			return // protocol violation
		}
	}
}

func (c *frontConn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, body, err := c.fr.read()
	if err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	if typ != frameHello {
		return errors.New("front: expected hello")
	}
	// The version is read before anything else is trusted: a client of
	// another version is refused by name even when the rest of its hello
	// does not parse as this version's schema.
	var hello helloMsg
	decodeErr := hello.decode(body)
	if hello.Version != ProtocolVersion {
		c.fw.send(frameHelloAck, helloAckMsg{
			Version: ProtocolVersion,
			Err:     fmt.Sprintf("unsupported protocol version %d (server speaks %d)", hello.Version, ProtocolVersion),
		}.appendBody)
		return errors.New("front: version skew")
	}
	if decodeErr != nil {
		return decodeErr
	}
	tenant, ok := c.f.cfg.Keys[hello.Key]
	if !ok {
		c.fw.send(frameHelloAck, helloAckMsg{Version: ProtocolVersion, Err: "unknown API key"}.appendBody)
		if m := fmet(); m != nil {
			m.authFailures.Inc()
		}
		return errors.New("front: bad key")
	}
	c.tenant = tenant
	return c.fw.send(frameHelloAck, helloAckMsg{Version: ProtocolVersion, Tenant: tenant}.appendBody)
}

// handleSubmit admits one wire submission into the pool and answers it
// synchronously. Rejections carry the machine-readable reason the
// metrics count; on acceptance a verdict waiter streams the outcome back
// when the session completes.
func (c *frontConn) handleSubmit(req submitMsg) {
	f := c.f
	reject := func(reason, detail string) {
		if m := fmet(); m != nil {
			m.rejected.With(reason).Inc()
		}
		c.fw.send(frameReject, rejectMsg{ID: req.ID, Reason: reason, Err: detail}.appendBody)
	}
	f.mu.Lock()
	draining := f.draining
	f.mu.Unlock()
	if draining {
		reject(RejectDraining, "server is draining")
		return
	}
	prog, ok := f.reg[req.Workload]
	if !ok {
		reject(RejectUnknownWorkload, fmt.Sprintf("workload %q not registered", req.Workload))
		return
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	if req.DeadlineMs > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithDeadline(ctx, time.Now().Add(time.Duration(req.DeadlineMs)*time.Millisecond))
		origCancel := cancel
		cancel = func(cause error) { tcancel(); origCancel(cause) }
	}

	opts := []serve.Option{serve.WithTenant(c.tenant)}
	if req.Trace {
		opts = append(opts, serve.WithRuntime(core.WithEventLog(f.cfg.TraceCap)))
	}
	name := fmt.Sprintf("%s/%s#%d", c.tenant, req.Workload, req.ID)
	s, err := f.pool.Submit(ctx, name, prog(workloads.ParseScale(req.Scale)), opts...)
	if err != nil {
		cancel(err)
		switch {
		case errors.Is(err, serve.ErrDeadlineInfeasible):
			reject(RejectDeadline, err.Error())
		case errors.Is(err, serve.ErrPoolSaturated):
			reject(RejectSaturated, err.Error())
		case errors.Is(err, serve.ErrPoolClosed):
			reject(RejectDraining, err.Error())
		default:
			reject(RejectSaturated, err.Error())
		}
		return
	}
	c.mu.Lock()
	c.inflight[req.ID] = cancel
	c.mu.Unlock()
	if m := fmet(); m != nil {
		m.submitted.Inc()
	}
	// Accept is written HERE, before the waiter exists, so it always
	// precedes the verdict frame on the wire.
	c.fw.send(frameAccept, acceptMsg{ID: req.ID}.appendBody)

	f.sessWG.Add(1)
	go func() {
		defer f.sessWG.Done()
		s.Wait()
		v := verdictMsg{
			ID:         req.ID,
			Verdict:    s.Verdict().String(),
			QueueMs:    s.QueueLatency().Milliseconds(),
			DurationMs: s.Duration().Milliseconds(),
		}
		if err := s.Err(); err != nil {
			v.Err = err.Error()
		}
		if req.Trace {
			if rt := s.Runtime(); rt != nil {
				v.Trace = []byte(rt.EventLog())
			}
		}
		if m := fmet(); m != nil {
			m.verdicts.With(v.Verdict).Inc()
		}
		c.mu.Lock()
		delete(c.inflight, req.ID)
		c.mu.Unlock()
		cancel(nil) // release the deadline timer
		c.deliverVerdict(name, v)
	}()
}

// deliverVerdict writes a session's verdict frame. A failed write never
// drops the verdict silently: it is spilled to the front's bounded log,
// and if the failure was a write TIMEOUT — a live TCP conn whose peer
// has stopped draining it — the slow client is evicted (counted, conn
// cut) so its stalled socket cannot pin verdict waiters for every other
// session on the conn.
func (c *frontConn) deliverVerdict(name string, v verdictMsg) {
	err := c.fw.send(frameVerdict, v.appendBody)
	if err == nil {
		return
	}
	c.f.spill(SpilledVerdict{
		Tenant: c.tenant, Session: name,
		Verdict: v.Verdict, Err: v.Err, Cause: err.Error(),
	})
	if errors.Is(err, ErrWriteTimeout) {
		if m := fmet(); m != nil {
			m.slowEvictions.Inc()
		}
		c.nc.Close()
	}
}

// spill appends an undeliverable verdict to the bounded spill log.
func (f *Front) spill(sv SpilledVerdict) {
	f.mu.Lock()
	f.spilled = append(f.spilled, sv)
	if n := len(f.spilled) - spillCap; n > 0 {
		f.spilled = append(f.spilled[:0], f.spilled[n:]...)
	}
	f.mu.Unlock()
}

// Spilled returns a copy of the spilled-verdict log: verdicts computed
// but undeliverable because their client stalled or vanished.
func (f *Front) Spilled() []SpilledVerdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]SpilledVerdict(nil), f.spilled...)
}

// cancelAll cancels every in-flight session on the conn with cause.
func (c *frontConn) cancelAll(cause error) {
	c.mu.Lock()
	cancels := make([]context.CancelCauseFunc, 0, len(c.inflight))
	for _, cancel := range c.inflight {
		cancels = append(cancels, cancel)
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel(cause)
	}
}

// Shutdown drains the front gracefully: stop accepting connections and
// submissions (new submits are rejected with reason "draining", and a
// goaway frame tells connected clients), let in-flight sessions finish
// until ctx expires, then cancel whatever remains, deliver every
// verdict, cut the connections, and close the pool. When Shutdown
// returns, every goroutine the front created — acceptor, connection
// handlers, verdict waiters, the pool's sessions, the shared scheduler's
// workers — has exited. Idempotent in effect; concurrent calls race
// harmlessly on the same teardown.
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	conns := make([]*frontConn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()

	f.ln.Close()
	<-f.acceptDone
	for _, c := range conns {
		c.fw.send(frameGoaway, goawayMsg{Reason: "draining"}.appendBody)
	}

	// Phase 1: wait for in-flight sessions to finish on their own, up to
	// the caller's deadline.
	done := make(chan struct{})
	go func() { f.sessWG.Wait(); close(done) }()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		// Phase 2: out of patience — cancel the stragglers by their
		// session ctx (structured cancellation: they unwind and verdict
		// as canceled) and wait for the verdicts to flush.
		drainErr = ctx.Err()
		for _, c := range conns {
			c.cancelAll(fmt.Errorf("front: drain deadline: %w", context.Cause(ctx)))
		}
		<-done
	}

	// Every session has a verdict on the wire; now the conns can go.
	for _, c := range conns {
		c.nc.Close()
	}
	f.connWG.Wait()
	f.pool.Close()
	return drainErr
}
