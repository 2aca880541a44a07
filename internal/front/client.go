package front

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// ErrRefused is wrapped into Dial errors when the server answered the
// handshake with a refusal — bad API key or protocol version skew.
// Unlike a connection failure, a refusal is NOT retryable: the same
// credentials will be refused again (RetryPolicy classifies it fatal).
var ErrRefused = errors.New("front: server refused connection")

// ErrHeartbeat is wrapped into the connection-lost error when the
// client's heartbeat loop declared the server dead: HeartbeatMisses
// consecutive pings went unanswered.
var ErrHeartbeat = errors.New("front: heartbeats unanswered")

// Client write-deadline and heartbeat defaults (DialOptions zero
// values).
const (
	defaultClientWriteTimeout = 10 * time.Second
	defaultHeartbeatMisses    = 3
	defaultDialTimeout        = 5 * time.Second
)

// DialOptions tunes one client connection's supervision. The zero
// value is production-sane: a 10 s write deadline (a dead server can
// stall a submit for at most that, never forever), heartbeats off, no
// fault injection.
type DialOptions struct {
	// WriteTimeout bounds every frame write (submit, cancel, ping). 0
	// selects 10 s; negative disables the deadline entirely. A write
	// that misses it fails with ErrWriteTimeout and the connection is
	// torn down — the frame boundary is unrecoverable.
	WriteTimeout time.Duration
	// HeartbeatInterval, when positive, starts a keepalive loop: a ping
	// every interval, and the connection is declared dead (all pending
	// sessions fail with ErrHeartbeat) after HeartbeatMisses consecutive
	// unanswered pings. Heartbeats also keep the connection alive past a
	// server-side idle reaper (front.Config.IdleTimeout).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive unanswered-ping budget; <= 0
	// selects 3.
	HeartbeatMisses int
	// DialTimeout bounds the TCP dial; <= 0 selects 5 s.
	DialTimeout time.Duration
	// Chaos, when non-nil, wraps the connection with injected faults
	// (resets, delays, partial writes) — the client-side half of the
	// chaos harness.
	Chaos *chaos.Injector
}

// Client is the Go client for a Front. One Client owns one TCP
// connection; Submit is safe for concurrent use, and each submission
// returns a *RemoteSession — the remote implementation of
// serve.SessionHandle, so code written against the handle (the load
// generator, operator tooling) drives local and remote sessions
// identically.
type Client struct {
	nc     net.Conn
	fr     *frameReader
	fw     *frameWriter
	tenant string

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*RemoteSession
	closed  bool
	goaway  bool
	fatalCl bool  // conn torn down by fatal()
	cause   error // why, when fatalCl
	readErr error
	// readDone is closed when the reader goroutine exits.
	readDone chan struct{}
	// hbDone is closed when the heartbeat goroutine exits (immediately
	// closed when heartbeats are off).
	hbDone chan struct{}

	pingSeq   atomic.Uint64 // last ping sent
	pongSeq   atomic.Uint64 // last pong received
	missed    atomic.Int64  // heartbeat intervals that elapsed unanswered
	unmatched atomic.Int64  // verdict frames with no pending session (double delivery)
}

// ClientStats counts one connection's supervision events.
type ClientStats struct {
	// HeartbeatsMissed is how many heartbeat intervals elapsed with the
	// previous ping still unanswered (the connection is cut at
	// HeartbeatMisses consecutive).
	HeartbeatsMissed int64
	// UnmatchedVerdicts counts verdict frames that matched no pending
	// session — a verdict delivered twice for one id, or for an id this
	// client never submitted. Always 0 when the exactly-once contract
	// holds; the chaos harness asserts it.
	UnmatchedVerdicts int64
}

// Stats returns the connection's supervision counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		HeartbeatsMissed:  c.missed.Load(),
		UnmatchedVerdicts: c.unmatched.Load(),
	}
}

// SubmitRequest describes one remote session.
type SubmitRequest struct {
	// Workload is the registered workload name ("Sieve", "Deadlock", ...).
	Workload string
	// Scale is the workload scale ("small", "default", "paper"); empty
	// selects default.
	Scale string
	// Deadline, when positive, is the session's relative deadline. It is
	// sent as a duration and re-anchored on the server clock, and it is
	// what deadline-aware admission judges.
	Deadline time.Duration
	// Trace requests the session's event window back with the verdict,
	// in the binary trace format (RemoteSession.Trace).
	Trace bool
}

// RemoteSession is a submitted-and-accepted remote session. It
// implements serve.SessionHandle; accessors other than ID, Name, Tenant
// and Done are valid after Wait (or a receive from Done) returns.
type RemoteSession struct {
	c        *Client
	id       uint64
	workload string
	tenant   string

	// admitted carries the synchronous admission answer (nil or the
	// mapped rejection error) from the read loop to Submit.
	admitted chan error

	done    chan struct{}
	err     error
	verdict serve.Verdict
	queue   time.Duration
	dur     time.Duration
	trace   []byte
}

// Dial connects to a Front with default supervision (10 s write
// deadline, no heartbeats), performs the version/key handshake, and
// returns a ready Client. The key decides the fairness tenant every
// session on this connection is accounted under.
func Dial(addr, key string) (*Client, error) {
	return DialOpts(addr, key, DialOptions{})
}

// DialOpts is Dial with explicit supervision options.
func DialOpts(addr, key string, o DialOptions) (*Client, error) {
	dialTO := o.DialTimeout
	if dialTO <= 0 {
		dialTO = defaultDialTimeout
	}
	raw, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, fmt.Errorf("front: dial %s: %w", addr, err)
	}
	nc := chaos.WrapConn(raw, o.Chaos)
	writeTO := o.WriteTimeout
	switch {
	case writeTO == 0:
		writeTO = defaultClientWriteTimeout
	case writeTO < 0:
		writeTO = 0
	}
	c := &Client{
		nc:       nc,
		fr:       newFrameReader(nc),
		fw:       &frameWriter{w: nc, nc: nc, timeout: writeTO},
		pending:  make(map[uint64]*RemoteSession),
		readDone: make(chan struct{}),
		hbDone:   make(chan struct{}),
	}
	// A transport failure during the handshake (EOF, reset, timeout) is
	// a connection lost before anything was accepted: it carries the
	// same ErrPoolClosed sentinel the read loop uses for conn loss, so
	// the retry layer classifies it retryable. Protocol-level refusals
	// (ErrRefused, bad ack) stay terminal.
	if err := c.fw.send(frameHello, helloMsg{Version: ProtocolVersion, Key: key}.appendBody); err != nil {
		nc.Close()
		return nil, fmt.Errorf("front: handshake: %w: %w", err, serve.ErrPoolClosed)
	}
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, body, err := c.fr.read()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("front: handshake: %w: %w", err, serve.ErrPoolClosed)
	}
	nc.SetReadDeadline(time.Time{})
	var ack helloAckMsg
	if typ != frameHelloAck || ack.decode(body) != nil {
		nc.Close()
		return nil, errors.New("front: handshake: expected helloAck")
	}
	if ack.Err != "" {
		nc.Close()
		return nil, fmt.Errorf("%w: %s", ErrRefused, ack.Err)
	}
	c.tenant = ack.Tenant
	go c.readLoop()
	if o.HeartbeatInterval > 0 {
		misses := o.HeartbeatMisses
		if misses <= 0 {
			misses = defaultHeartbeatMisses
		}
		go c.heartbeatLoop(o.HeartbeatInterval, misses)
	} else {
		close(c.hbDone)
	}
	return c, nil
}

// fatal tears the connection down because of err: the read loop then
// exits and fails every outstanding session. Idempotent; the first
// cause wins.
func (c *Client) fatal(err error) {
	c.mu.Lock()
	if !c.fatalCl {
		c.fatalCl = true
		c.cause = err
	}
	c.mu.Unlock()
	c.nc.Close()
}

// heartbeatLoop sends a ping every interval and declares the
// connection dead after `misses` consecutive unanswered ones. Any
// inbound pong (matched by sequence number) resets the debt. The loop
// exits with the read loop.
func (c *Client) heartbeatLoop(interval time.Duration, misses int) {
	defer close(c.hbDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.readDone:
			return
		case <-t.C:
		}
		if sent := c.pingSeq.Load(); sent > c.pongSeq.Load() {
			c.missed.Add(1)
			if m := fmet(); m != nil {
				m.heartbeatsMissed.Inc()
			}
			if sent-c.pongSeq.Load() >= uint64(misses) {
				c.fatal(fmt.Errorf("%w: %d consecutive pings (interval %v)", ErrHeartbeat, misses, interval))
				return
			}
		}
		if err := c.fw.send(framePing, pingMsg{Seq: c.pingSeq.Add(1)}.appendBody); err != nil {
			c.fatal(err)
			return
		}
	}
}

// Tenant returns the fairness tenant the server mapped this client's
// API key to.
func (c *Client) Tenant() string { return c.tenant }

// alive reports whether the connection can still carry submissions:
// not closed, not torn down by fatal(), read loop still running, no
// goaway received.
func (c *Client) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.fatalCl || c.goaway || c.readErr != nil {
		return false
	}
	select {
	case <-c.readDone:
		return false
	default:
		return true
	}
}

// Submit sends one session to the server and waits for its synchronous
// admission answer. On acceptance the returned RemoteSession's verdict
// arrives asynchronously (Wait/Done); on rejection the error carries
// the same sentinels the local pool uses — errors.Is against
// serve.ErrDeadlineInfeasible, serve.ErrPoolSaturated and
// serve.ErrPoolClosed classifies it. ctx bounds only the wait for the
// admission answer; cancelling an accepted session is Cancel's job.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*RemoteSession, error) {
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("front: client closed: %w", serve.ErrPoolClosed)
	}
	if c.goaway {
		c.mu.Unlock()
		return nil, fmt.Errorf("front: server is draining: %w", serve.ErrPoolClosed)
	}
	c.nextID++
	s := &RemoteSession{
		c:        c,
		id:       c.nextID,
		workload: req.Workload,
		tenant:   c.tenant,
		done:     make(chan struct{}),
	}
	s.admitted = make(chan error, 1)
	c.pending[s.id] = s
	c.mu.Unlock()

	msg := submitMsg{ID: s.id, Workload: req.Workload, Scale: req.Scale, Trace: req.Trace}
	if req.Deadline > 0 {
		msg.DeadlineMs = req.Deadline.Milliseconds()
		if msg.DeadlineMs == 0 {
			msg.DeadlineMs = 1
		}
	}
	if err := c.fw.send(frameSubmit, msg.appendBody); err != nil {
		// A failed frame write leaves the stream boundary unknown: the
		// connection is unusable, and tearing it down is what lets Submit
		// callers observe a clean connection-lost error instead of a wedge.
		c.fatal(err)
		c.drop(s.id)
		return nil, err
	}
	select {
	case err := <-s.admitted:
		if err != nil {
			c.drop(s.id)
			return nil, err
		}
		return s, nil
	case <-ctx.Done():
		// Best-effort: tell the server we no longer care, keep the
		// pending entry so a late accept/verdict finds a home.
		c.fw.send(frameCancel, cancelMsg{ID: s.id}.appendBody)
		c.drop(s.id)
		return nil, context.Cause(ctx)
	case <-c.readDone:
		c.drop(s.id)
		return nil, fmt.Errorf("front: connection lost: %w", serve.ErrPoolClosed)
	}
}

// Cancel asks the server to cancel an accepted session. Best-effort:
// the session still completes with a verdict (normally "canceled").
func (c *Client) Cancel(s *RemoteSession) error {
	return c.fw.send(frameCancel, cancelMsg{ID: s.id}.appendBody)
}

// Close tears the connection down. In-flight sessions complete locally
// with a connection-lost error and serve.VerdictCanceled.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.nc.Close()
	<-c.readDone
	<-c.hbDone
	return err
}

func (c *Client) drop(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// readLoop is the connection's single reader: it correlates every
// server frame back to its session by id and completes the handles.
func (c *Client) readLoop() {
	defer close(c.readDone)
	var err error
	for {
		var typ byte
		var body []byte
		typ, body, err = c.fr.read()
		if err != nil {
			break
		}
		switch typ {
		case frameAccept:
			var msg acceptMsg
			if msg.decode(body) != nil {
				err = errors.New("front: corrupt accept")
			} else if s := c.lookup(msg.ID); s != nil {
				s.admitted <- nil
			}
		case frameReject:
			var msg rejectMsg
			if msg.decode(body) != nil {
				err = errors.New("front: corrupt reject")
			} else if s := c.lookup(msg.ID); s != nil {
				s.admitted <- rejectError(msg)
			}
		case frameVerdict:
			var msg verdictMsg
			if msg.decode(body) != nil {
				err = errors.New("front: corrupt verdict")
			} else if s := c.take(msg.ID); s != nil {
				s.verdict = parseVerdict(msg.Verdict)
				if msg.Err != "" {
					s.err = &RemoteError{Verdict: s.verdict, Msg: msg.Err}
				}
				s.queue = time.Duration(msg.QueueMs) * time.Millisecond
				s.dur = time.Duration(msg.DurationMs) * time.Millisecond
				s.trace = msg.Trace
				close(s.done)
			} else {
				// No pending session for this id: a verdict delivered
				// twice, or for an id we never submitted. Counted, not
				// fatal — the chaos harness asserts this stays 0.
				c.unmatched.Add(1)
			}
		case frameGoaway:
			c.mu.Lock()
			c.goaway = true
			c.mu.Unlock()
		case framePing:
			var msg pingMsg
			if msg.decode(body) != nil {
				err = errors.New("front: corrupt ping")
			} else if werr := c.fw.send(framePong, msg.appendBody); werr != nil {
				err = werr
			}
		case framePong:
			var msg pingMsg
			if msg.decode(body) != nil {
				err = errors.New("front: corrupt pong")
			} else if seq := msg.Seq; seq > c.pongSeq.Load() {
				c.pongSeq.Store(seq)
			}
		default:
			err = fmt.Errorf("%w: %d", ErrUnknownFrame, typ)
		}
		if err != nil {
			break
		}
	}
	// Connection over: fail whatever is still outstanding. When fatal()
	// tore the conn down (heartbeat expiry, write timeout), its recorded
	// cause is the interesting error, not the read loop's EOF.
	c.mu.Lock()
	if c.fatalCl && c.cause != nil {
		err = c.cause
	}
	c.readErr = err
	pending := c.pending
	c.pending = make(map[uint64]*RemoteSession)
	c.mu.Unlock()
	// Double-wrap so errors.Is classifies both the transport cause
	// (ErrHeartbeat, ErrWriteTimeout, chaos.ErrInjected) and the
	// connection-lost sentinel.
	lost := fmt.Errorf("front: connection lost: %w: %w", err, serve.ErrPoolClosed)
	for _, s := range pending {
		select {
		case s.admitted <- lost:
		default:
		}
		select {
		case <-s.done:
		default:
			s.err = fmt.Errorf("front: connection lost before verdict: %w: %w", err, serve.ErrPoolClosed)
			s.verdict = serve.VerdictCanceled
			close(s.done)
		}
	}
}

func (c *Client) lookup(id uint64) *RemoteSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[id]
}

// take removes and returns the session — verdict is the id's last frame.
func (c *Client) take(id uint64) *RemoteSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.pending[id]
	delete(c.pending, id)
	return s
}

// rejectError maps a wire rejection onto the serving layer's error
// sentinels, so remote and local callers classify identically.
func rejectError(msg rejectMsg) error {
	var sentinel error
	switch msg.Reason {
	case RejectDeadline:
		sentinel = serve.ErrDeadlineInfeasible
	case RejectSaturated:
		sentinel = serve.ErrPoolSaturated
	case RejectDraining:
		sentinel = serve.ErrPoolClosed
	default:
		return fmt.Errorf("front: rejected (%s): %s", msg.Reason, msg.Err)
	}
	return fmt.Errorf("front: rejected (%s): %s: %w", msg.Reason, msg.Err, sentinel)
}

// RemoteError is a session error reconstructed from the wire: the
// server sends the error text, not the value, so only the verdict
// classification survives the crossing — callers route on Verdict (or
// the Msg text), not errors.As.
type RemoteError struct {
	Verdict serve.Verdict
	Msg     string
}

func (e *RemoteError) Error() string { return e.Msg }

func parseVerdict(s string) serve.Verdict {
	for v := serve.Verdict(0); ; v++ {
		if v.String() == s {
			return v
		}
		if v.String() == "unknown" {
			return serve.VerdictFailed
		}
	}
}

// --- RemoteSession: the serve.SessionHandle surface ---

var _ serve.SessionHandle = (*RemoteSession)(nil)

// ID returns the client-assigned, connection-unique session id.
func (s *RemoteSession) ID() uint64 { return s.id }

// Name returns the workload name the session was submitted as.
func (s *RemoteSession) Name() string { return s.workload }

// Tenant returns the fairness tenant (from the connection's API key).
func (s *RemoteSession) Tenant() string { return s.tenant }

// Done returns a channel closed when the session's verdict has arrived
// (or the connection was lost).
func (s *RemoteSession) Done() <-chan struct{} { return s.done }

// Wait blocks until the verdict arrives and returns the session error.
func (s *RemoteSession) Wait() error {
	<-s.done
	return s.err
}

// Err returns the session's error. Valid after Wait/Done.
func (s *RemoteSession) Err() error {
	<-s.done
	return s.err
}

// Verdict returns the classified outcome. Valid after Wait/Done.
func (s *RemoteSession) Verdict() serve.Verdict {
	<-s.done
	return s.verdict
}

// QueueLatency is the server-measured admission wait. Valid after
// Wait/Done. Millisecond granularity: it crosses the wire.
func (s *RemoteSession) QueueLatency() time.Duration {
	<-s.done
	return s.queue
}

// Duration is the server-measured execution time. Valid after
// Wait/Done. Millisecond granularity: it crosses the wire.
func (s *RemoteSession) Duration() time.Duration {
	<-s.done
	return s.dur
}

// Trace returns the session's event window, if requested at Submit, as
// a binary trace stream: trace.ReadAll decodes it and trace.Verify
// re-checks the verdict from it (or pipe it to `tracecheck -`). A window
// missing older events, because the session emitted more than the
// front's TraceCap or more than fit the verdict frame, leads with one
// gap record counting them, and Verify reports it incomplete. Valid
// after Wait/Done.
func (s *RemoteSession) Trace() []byte {
	<-s.done
	return s.trace
}
