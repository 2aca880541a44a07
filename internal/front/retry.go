package front

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// A ResilientClient's retry schedule: tries per submission (the first
// included), and the full-jitter backoff's seed and cap.
const (
	maxAttempts = 10
	baseDelay   = 20 * time.Millisecond
	maxDelay    = 500 * time.Millisecond
)

// backoff returns the full-jitter sleep before retry number n (1 = the
// first retry): uniform in [0, min(max, base<<(n-1))). Full jitter
// decorrelates a fleet of clients that failed together — after a server
// restart they return spread over the window instead of as a
// thundering herd.
func backoff(n int, base, max time.Duration, rng *rand.Rand) time.Duration {
	cap := base << (n - 1)
	if cap > max || cap <= 0 { // <= 0: shift overflow
		cap = max
	}
	return time.Duration(rng.Int63n(int64(cap)))
}

// Retryable classifies a Submit/Dial error: true means the failure is
// transient-shaped and a fresh attempt can legitimately succeed.
//
// Retryable: pool saturation (serve.ErrPoolSaturated — capacity frees
// up), connection loss before the admission answer
// (serve.ErrPoolClosed and its causes: heartbeat expiry, write
// timeout, injected faults), and dial failures (net.Error).
//
// NOT retryable: deadline-infeasible rejections
// (serve.ErrDeadlineInfeasible — the deadline stays infeasible),
// handshake refusals (ErrRefused — the same key/version is refused
// again), caller context cancellation, and unknown-workload rejections
// (no sentinel — the registry will not learn the name by retrying).
//
// Retrying connection loss never duplicates a verdict: the client only
// resubmits a session whose accept it never read. It can duplicate a
// run — the server may have admitted and run the first attempt before
// the connection died (see DESIGN.md, "Exactly-once verdicts under
// retry").
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, serve.ErrDeadlineInfeasible):
		return false
	case errors.Is(err, ErrRefused):
		return false
	case errors.Is(err, serve.ErrPoolSaturated):
		return true
	case errors.Is(err, serve.ErrPoolClosed):
		return true
	case errors.Is(err, ErrWriteTimeout):
		return true
	case errors.Is(err, ErrHeartbeat):
		return true
	case errors.Is(err, chaos.ErrInjected):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// retryReason maps a retryable error to its front_retries_total label.
// Closed set: saturated, conn_lost, write_timeout, heartbeat, injected,
// dial.
func retryReason(err error) string {
	switch {
	case errors.Is(err, serve.ErrPoolSaturated):
		return "saturated"
	case errors.Is(err, ErrHeartbeat):
		return "heartbeat"
	case errors.Is(err, ErrWriteTimeout):
		return "write_timeout"
	case errors.Is(err, chaos.ErrInjected):
		return "injected"
	case errors.Is(err, serve.ErrPoolClosed):
		return "conn_lost"
	default:
		return "dial"
	}
}

// ResilientClient wraps the single-connection Client with the fault
// tolerance a long-lived caller wants: automatic reconnect to one
// address, and classified retries under full-jitter exponential
// backoff.
//
// A submission is retried ONLY while no accept for it has been
// observed — Client.Submit is synchronous to the admission answer.
// Once Submit returns a *RemoteSession the session is never
// resubmitted; if its connection later dies the verdict comes back as
// a connection-lost error, and re-running it is the caller's decision.
// A retried submission may still run twice on the server: an attempt
// admitted just before its connection died runs without its client
// ever reading the accept (see Retryable).
type ResilientClient struct {
	addr string
	key  string
	opts DialOptions
	// attempts, base and max are the retry schedule: maxAttempts,
	// baseDelay and maxDelay, shortened only by tests.
	attempts  int
	base, max time.Duration

	mu     sync.Mutex
	cur    *Client
	rng    *rand.Rand
	closed bool
	acc    ClientStats // supervision counters of discarded connections

	retries atomic.Int64 // retries over the client's lifetime
}

// DialResilient builds a ResilientClient for addr and eagerly dials it,
// so configuration errors (bad key, refused version) surface at
// startup. The key and opts apply to every connection the client ever
// makes; opts.Chaos, if set, injects faults into each of them.
func DialResilient(addr, key string, opts DialOptions) (*ResilientClient, error) {
	r := &ResilientClient{
		addr:     addr,
		key:      key,
		opts:     opts,
		attempts: maxAttempts,
		base:     baseDelay,
		max:      maxDelay,
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	r.mu.Lock()
	_, err := r.connLocked()
	r.mu.Unlock()
	if err != nil && !Retryable(err) {
		return nil, err
	}
	// A retryable startup failure (server briefly down) is tolerated:
	// the first Submit retries it.
	return r, nil
}

// connLocked returns the live connection, dialing a new one when the
// current one is dead. Every error that fails a submission at the
// connection (loss, write timeout, heartbeat expiry, injected fault)
// leaves that Client not alive, so this is the one place a connection
// is replaced. A draining server's rejection (ErrPoolClosed on a live
// conn) is the one retryable answer that leaves it alive: the goaway
// frame Shutdown sends next marks it dead, and redialling before that
// would only meet the closed listener. Caller holds r.mu; the mutex is
// HELD across the dial —
// concurrent Submits briefly serialize on reconnect, which is the
// behavior we want (one reconnect, not a dial stampede).
func (r *ResilientClient) connLocked() (*Client, error) {
	if r.closed {
		return nil, errors.New("front: client closed")
	}
	if r.cur != nil && r.cur.alive() {
		return r.cur, nil
	}
	if r.cur != nil {
		r.absorbLocked(r.cur)
		r.cur.Close()
		r.cur = nil
	}
	c, err := DialOpts(r.addr, r.key, r.opts)
	if err != nil {
		return nil, err
	}
	r.cur = c
	return c, nil
}

// Submit runs one submission: connect (reconnecting if needed), submit,
// classify. Retryable failures back off with full jitter and try again,
// up to maxAttempts tries; non-retryable ones return immediately. The
// returned session, once non-nil, is accepted and will never be
// resubmitted.
func (r *ResilientClient) Submit(ctx context.Context, req SubmitRequest) (*RemoteSession, error) {
	for attempt := 1; ; attempt++ {
		r.mu.Lock()
		c, err := r.connLocked()
		r.mu.Unlock()
		if err == nil {
			var s *RemoteSession
			if s, err = c.Submit(ctx, req); err == nil {
				return s, nil
			}
		}
		if !Retryable(err) {
			return nil, err
		}
		if attempt >= r.attempts {
			return nil, fmt.Errorf("front: %d attempts exhausted: %w", attempt, err)
		}
		r.retries.Add(1)
		if m := fmet(); m != nil {
			m.retries.With(retryReason(err)).Inc()
		}
		r.mu.Lock()
		d := backoff(attempt, r.base, r.max, r.rng)
		r.mu.Unlock()
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// Retries returns the retries made over the client's lifetime.
func (r *ResilientClient) Retries() int64 { return r.retries.Load() }

// absorbLocked folds a connection's supervision counters into the
// lifetime accumulator before the connection is discarded. Caller
// holds r.mu and must be the one removing c from r.cur (so each conn
// is absorbed exactly once).
func (r *ResilientClient) absorbLocked(c *Client) {
	s := c.Stats()
	r.acc.HeartbeatsMissed += s.HeartbeatsMissed
	r.acc.UnmatchedVerdicts += s.UnmatchedVerdicts
}

// Stats returns the supervision counters accumulated across every
// connection this client has owned, including the live one.
func (r *ResilientClient) Stats() ClientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.acc
	if r.cur != nil {
		s := r.cur.Stats()
		out.HeartbeatsMissed += s.HeartbeatsMissed
		out.UnmatchedVerdicts += s.UnmatchedVerdicts
	}
	return out
}

// Close tears down the current connection and refuses further Submits.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	c := r.cur
	if c != nil {
		r.absorbLocked(c)
	}
	r.cur = nil
	r.closed = true
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
