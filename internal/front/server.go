package front

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// handshakeTimeout bounds how long a fresh conn may sit before its hello
// arrives — an unauthenticated socket must not pin a goroutine forever.
const handshakeTimeout = 5 * time.Second

// defaultTraceCap is the per-session event window for sessions that
// request a trace.
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

// shortBody is the longest last run for which the front defers a
// session's accept to the session's completion hook, so the verdict
// shares the accept's write. The front arms a shortBody timer for such a
// session instead of answering from the read loop; if the session is
// still running when the timer fires, the timer sends the accept alone
// and the hook later sends the verdict alone. So a body that runs longer,
// computing or blocked, gets its accept at most shortBody late, and a
// workload not marked short gets it at once. Listing 1 and a no-op body
// run for tens of microseconds.
const shortBody = 100 * time.Microsecond

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
	// TraceCap is the event window a session submitted with Trace
	// keeps: its newest TraceCap events, behind a gap record counting
	// the rest. <= 0 selects 4096.
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
	// AcceptSent reports whether the session's accept frame had been
	// written. When it had not, the client never learned that the
	// session was admitted, and a resilient client submits it again.
	AcceptSent bool
}

// Front is the network serving front-end: it owns a listener, a serving
// pool, and one goroutine per connection. An in-flight session holds no
// goroutine: its verdict frame is written by its completion hook, in the
// same write as the accept when nothing has sent the accept yet. New
// starts it; Shutdown drains it.
type Front struct {
	cfg  Config
	reg  Registry
	pool *serve.Pool
	ln   net.Listener

	// short holds, per registered workload and scale, whether the body
	// of its last session that ran took under shortBody. The map is
	// built by New from the registry and then only read; a workload
	// missing from it always gets its accept at once.
	short map[string]*[workloads.ScalePaper + 1]atomic.Bool

	mu       sync.Mutex
	draining bool
	conns    map[*frontConn]struct{}
	spilled  []SpilledVerdict // bounded by spillCap; oldest dropped first

	connWG sync.WaitGroup // connection handler goroutines
	// sessWG counts accepted submissions whose verdict frame has not been
	// delivered (or spilled) yet. Added under mu with the draining check,
	// so Shutdown's Wait never races an Add from zero.
	sessWG     sync.WaitGroup
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
		short:      make(map[string]*[workloads.ScalePaper + 1]atomic.Bool, len(cfg.Registry)),
		conns:      make(map[*frontConn]struct{}),
		acceptDone: make(chan struct{}),
	}
	for name := range cfg.Registry {
		f.short[name] = new([workloads.ScalePaper + 1]atomic.Bool)
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
// loop. Rejects, and the accepts of workloads not marked short, are sent
// synchronously from this loop; a short workload's accept is deferred to
// its session's completion hook or its shortBody timer. Either way the
// accept precedes the session's verdict frame (see pendingVerdict).
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

// handleSubmit admits one wire submission into the pool. Rejections are
// answered at once and carry the machine-readable reason the metrics
// count. An accepted session of a workload not marked short gets its
// accept at once, with its verdict in the same write when the session
// has finished by then. A short workload's accept is deferred: the
// session's completion hook sends it with the verdict, or a shortBody
// timer sends it alone if the session outlives the bound (see
// pendingVerdict). The read loop does not wait for either.
func (c *frontConn) handleSubmit(req submitMsg) {
	f := c.f
	reject := func(reason, detail string) {
		if m := fmet(); m != nil {
			m.rejected.With(reason).Inc()
		}
		c.fw.send(frameReject, rejectMsg{ID: req.ID, Reason: reason, Err: detail}.appendBody)
	}
	prog, ok := f.reg[req.Workload]
	f.mu.Lock()
	draining := f.draining
	if !draining && ok {
		f.sessWG.Add(1)
	}
	f.mu.Unlock()
	if draining {
		reject(RejectDraining, "server is draining")
		return
	}
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
	scale := workloads.ParseScale(req.Scale)
	pv := &pendingVerdict{
		c:      c,
		id:     req.ID,
		name:   c.tenant + "/" + req.Workload + "#" + strconv.FormatUint(req.ID, 10),
		cancel: cancel,
	}
	if short := f.short[req.Workload]; short != nil {
		pv.short = &short[scale]
	}

	opts := []serve.Option{serve.WithTenant(c.tenant), serve.WithOnDone(pv.turn)}
	if req.Trace {
		pv.sink = trace.NewMemSink(f.cfg.TraceCap)
		opts = append(opts, serve.WithRuntime(core.TraceTo(pv.sink)))
	}
	// Registered before Submit: a session that finishes at once must find
	// its own entry, and a cancel frame can only arrive after this loop
	// returns anyway.
	c.mu.Lock()
	c.inflight[req.ID] = cancel
	c.mu.Unlock()
	answer := uint32(pvAdmitted | pvExpired)
	pv.refs.Store(1)
	if pv.short != nil && pv.short.Load() {
		// Armed before Submit: the session can finish, and its hook stop
		// the timer, before Submit returns.
		answer = pvAdmitted
		pv.refs.Store(2)
		pv.timer = time.AfterFunc(shortBody, pv.expire)
	}
	if _, err := f.pool.Submit(ctx, pv.name, prog(scale), opts...); err != nil {
		pv.retire(err)
		pv.release(1 + pv.stopTimer()) // the hook's share: it never runs
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
	if m := fmet(); m != nil {
		m.submitted.Inc()
	}
	pv.mark(answer)
}

// pendingVerdict states, the bits of pendingVerdict.state. The accept may
// go alone once the session is admitted and expired; answered marks that
// the accept is claimed, alone or riding with the verdict.
const (
	pvAdmitted = 1 << iota // Pool.Submit returned the session
	pvExpired              // no merge is waited for: not short, or the timer fired
	pvAnswered             // the accept is claimed
)

// pendingVerdict is an accepted session whose verdict frame is still
// owed. Its accept is sent by exactly one of two parties, which claim it
// on an atomic state word:
//
//   - the session's completion hook (turn), which sends the accept and
//     the verdict in one Write unless the accept was claimed before it;
//   - acceptAlone, called by whichever of the read loop (its Submit
//     returned) and the shortBody timer (it fired) comes second, or by
//     the read loop alone for a workload not marked short.
//
// acceptAlone claims the accept only while it holds the frameWriter's
// mutex and writes it before letting go, so a hook that finds the accept
// claimed writes its verdict, under the same mutex, after it. So the
// accept always precedes the verdict on the wire, and no goroutine waits
// for the session. A short session that finishes inside shortBody has
// its timer stopped by the hook before it fires, and costs no goroutine
// and one Write.
type pendingVerdict struct {
	c      *frontConn
	id     uint64
	name   string         // server-side session name (tenant/workload#id)
	sink   *trace.MemSink // the session's event window; nil if untraced
	cancel context.CancelCauseFunc
	short  *atomic.Bool // the workload's shortBody flag; nil if unknown
	timer  *time.Timer  // the deferred accept's timer; nil if not deferred
	state  atomic.Uint32
	// refs counts the parties still to finish before the front's
	// in-flight count drops: the hook, and a timer that was not stopped.
	refs atomic.Int32

	// acceptSent records that the accept frame was written. acceptAlone
	// sets it under the frameWriter's mutex, so a hook reads it only
	// after its own verdict write has taken that mutex.
	acceptSent bool
}

// turn is the session's completion hook: it delivers the verdict, with
// the accept in the same Write unless that was sent already.
func (pv *pendingVerdict) turn(s *serve.Session) {
	stopped := pv.stopTimer()
	pv.deliver(s)
	pv.release(1 + stopped)
}

// expire is the shortBody timer: the session outlived the bound, so its
// accept goes alone once Submit has returned it.
func (pv *pendingVerdict) expire() {
	pv.mark(pvExpired)
	pv.release(1)
}

// mark sets bits in the state and sends the accept alone if that makes
// the session both admitted and expired with its accept unclaimed. Of
// the read loop and the timer, only the second to mark sees both bits.
func (pv *pendingVerdict) mark(bits uint32) {
	if pv.set(bits)|bits == pvAdmitted|pvExpired {
		pv.acceptAlone()
	}
}

// set sets bits in the state and returns the state before. It is a CAS
// loop and not atomic.Uint32.Or: with go1.24.0 on amd64, mark's use of
// Or's result, inlined into handleSubmit, overwrote the receiver with
// that result.
func (pv *pendingVerdict) set(bits uint32) uint32 {
	for {
		old := pv.state.Load()
		if old|bits == old || pv.state.CompareAndSwap(old, old|bits) {
			return old
		}
	}
}

// acceptAlone claims the accept and writes it by itself, both under the
// frameWriter's mutex, unless the hook claimed it first.
func (pv *pendingVerdict) acceptAlone() {
	fw := pv.c.fw
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if pv.set(pvAnswered)&pvAnswered != 0 {
		return // the hook's verdict carries the accept
	}
	pv.acceptSent = fw.sendLocked(frameAccept, acceptMsg{ID: pv.id}.appendBody) == nil
	if pv.timer != nil {
		if m := fmet(); m != nil {
			m.acceptsExpired.Inc()
		}
	}
}

// stopTimer stops the deferred accept's timer. It returns 1 when that
// kept the timer from firing, so its caller releases the timer's share,
// and 0 when there is no timer or it fired.
func (pv *pendingVerdict) stopTimer() int32 {
	if pv.timer != nil && pv.timer.Stop() {
		return 1
	}
	return 0
}

// release drops n of the parties pv waits for; the last one takes the
// session off the front's in-flight count.
func (pv *pendingVerdict) release(n int32) {
	if pv.refs.Add(-n) == 0 {
		pv.c.f.sessWG.Done()
	}
}

// deliver claims the accept if nothing has sent it, builds the finished
// session's verdict frame, retires the session, and writes (or spills)
// the frame, after its accept in the same write when it claimed it.
func (pv *pendingVerdict) deliver(s *serve.Session) {
	// Claimed first, so a timer firing while the verdict is built finds
	// the accept taken and the two still share one write.
	withAccept := pv.set(pvAnswered)&pvAnswered == 0
	v := verdictMsg{
		ID:         pv.id,
		Verdict:    s.Verdict().String(),
		QueueMs:    s.QueueLatency().Milliseconds(),
		DurationMs: s.Duration().Milliseconds(),
	}
	if err := s.Err(); err != nil {
		v.Err = err.Error()
	}
	if pv.sink != nil {
		// The window in the binary trace format, cut to the newest
		// events that fit the frame.
		budget := maxFrameBody - 1 - len(v.appendBody(nil)) - binary.MaxVarintLen64
		v.Trace = trace.AppendWindow(nil, pv.sink.Snapshot(), budget)
	}
	if m := fmet(); m != nil {
		m.verdicts.With(v.Verdict).Inc()
	}
	// The next submit of this workload defers its accept only if this
	// body was short. A session canceled before it ran says nothing about
	// it.
	if pv.short != nil && s.Verdict() != serve.VerdictCanceled {
		if short := s.Duration() < shortBody; short != pv.short.Load() {
			pv.short.Store(short)
		}
	}
	pv.retire(nil) // nil: release the deadline timer
	pv.write(v, withAccept)
}

// retire takes the session off the conn's in-flight table, before its
// verdict can reach the client (which may then reuse the id), and
// cancels its ctx with cause.
func (pv *pendingVerdict) retire(cause error) {
	c := pv.c
	c.mu.Lock()
	delete(c.inflight, pv.id)
	c.mu.Unlock()
	pv.cancel(cause)
}

// write puts the session's verdict frame on the wire, behind its accept
// frame in the same Write when withAccept is set. A failed write never
// drops the verdict silently: it is spilled to the front's bounded log,
// and if the failure was a write TIMEOUT — a live TCP conn whose peer
// has stopped draining it — the slow client is evicted (counted, conn
// cut) so its stalled socket cannot hold up, for WriteTimeout each, the
// completing workers of every other session on the conn.
//
// A verdict frame longer than the peer's reader accepts (deliver cuts
// the trace to fit, so only an outsized error text makes one) is
// spilled; its accept goes out alone first.
func (pv *pendingVerdict) write(v verdictMsg, withAccept bool) {
	c := pv.c
	var err error
	if withAccept {
		err = c.fw.sendPair(frameAccept, acceptMsg{ID: v.ID}.appendBody, frameVerdict, v.appendBody)
		switch {
		case err == nil:
			if m := fmet(); m != nil {
				m.verdictsWithAccept.Inc()
			}
			return
		case errors.Is(err, ErrFrameOversized):
			// sendPair wrote nothing.
			if aerr := c.fw.send(frameAccept, acceptMsg{ID: v.ID}.appendBody); aerr != nil {
				err = aerr
			} else {
				pv.acceptSent = true
			}
		}
	} else {
		err = c.fw.send(frameVerdict, v.appendBody)
	}
	if err == nil {
		return
	}
	c.f.spill(SpilledVerdict{
		Tenant: c.tenant, Session: pv.name,
		Verdict: v.Verdict, Err: v.Err, Cause: err.Error(),
		AcceptSent: pv.acceptSent,
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
// handlers, the shared scheduler's workers that ran the sessions and
// wrote their verdicts — has exited. Idempotent in effect; concurrent
// calls race harmlessly on the same teardown.
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

	// Phase 1: wait for in-flight sessions to finish on their own and
	// their verdicts to go out, up to the caller's deadline.
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
