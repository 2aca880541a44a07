package serve

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Verdict classifies how a session ended, folding the runtime's error
// taxonomy into the four outcomes a server routes on.
type Verdict uint8

const (
	// VerdictClean: the program terminated with no error.
	VerdictClean Verdict = iota
	// VerdictDeadlock: the detector reported a cycle (core.DeadlockError).
	VerdictDeadlock
	// VerdictPolicy: an ownership-policy violation — omitted set, non-owner
	// set/move, double set, or a broken-promise cascade.
	VerdictPolicy
	// VerdictFailed: any other error (task error, panic, timeout).
	VerdictFailed
	// VerdictCanceled: the caller gave up — the session's context was
	// canceled or reached its deadline (before or during execution), or
	// Pool.Close aborted it while it was still queued for admission. The
	// program itself was not convicted of anything.
	VerdictCanceled

	verdictCount = iota
)

// String returns the verdict name used in reports.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictDeadlock:
		return "deadlock"
	case VerdictPolicy:
		return "policy"
	case VerdictFailed:
		return "failed"
	case VerdictCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Classify maps a session's error to its verdict. Precedence, most
// specific first: deadlock beats everything (the cycle is a true alarm
// the detector proved; a server routes on it even if the session was also
// canceled mid-conviction); cancellation beats policy (structured
// cancellation makes tasks return early, and the omitted-set blame and
// broken-promise cascades that follow are the TEARDOWN's fallout, not a
// verdict on the program); policy beats the generic failure bucket.
//
// Classify walks the error tree once, through Unwrap() error and
// Unwrap() []error as errors.Is and errors.As do, with one type switch
// per node, so classifying allocates nothing. A node's Is method is
// consulted for the cancellation sentinels; As methods are not.
func Classify(err error) Verdict {
	if err == nil {
		return VerdictClean
	}
	return strongest(err, VerdictFailed)
}

// verdictRank orders the verdicts Classify picks between by precedence.
var verdictRank = [verdictCount]uint8{VerdictFailed: 0, VerdictPolicy: 1, VerdictCanceled: 2, VerdictDeadlock: 3}

// strongest returns the highest-ranked of v and the verdicts of the
// nodes of err's tree. It stops at the first deadlock, which nothing
// outranks.
func strongest(err error, v Verdict) Verdict {
	for err != nil {
		node := VerdictFailed
		switch err.(type) {
		case *core.DeadlockError:
			return VerdictDeadlock
		case *core.CanceledError:
			node = VerdictCanceled
		case *core.OmittedSetError, *core.OwnershipError, *core.DoubleSetError, *core.BrokenPromiseError:
			node = VerdictPolicy
		default:
			if isCancellation(err) {
				node = VerdictCanceled
			}
		}
		if verdictRank[node] > verdictRank[v] {
			v = node
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if v = strongest(e, v); v == VerdictDeadlock {
					return v
				}
			}
			return v
		default:
			return v
		}
	}
	return v
}

// isCancellation reports whether err itself is, or says through its Is
// method that it is, one of the sentinels of a caller giving up.
func isCancellation(err error) bool {
	if err == context.Canceled || err == context.DeadlineExceeded || err == ErrPoolClosed {
		return true
	}
	x, ok := err.(interface{ Is(error) bool })
	return ok && (x.Is(context.Canceled) || x.Is(context.DeadlineExceeded) || x.Is(ErrPoolClosed))
}

// Session is one submitted program. The handle is returned by Submit
// before the program runs; Wait blocks until it has finished. All other
// accessors are valid only after Wait (or a receive from Done) returns.
type Session struct {
	pool   *Pool
	id     uint64
	name   string
	tenant string // fairness tenant (WithTenant, or DefaultTenant)
	tlabel string // tenant as bounded for metric labels (obs.LabelGuard)

	// ctx is the session's cancellation scope, covering both the
	// admission-queue wait and the execution (Runtime.RunContext).
	ctx context.Context

	main        core.TaskFunc
	runtimeOpts []core.Option
	// rt is published when the session job builds the runtime, so
	// SchedStats can read its counters while the session runs.
	rt atomic.Pointer[core.Runtime]

	// Admission-queue state, guarded by Pool.mu: whether the session is
	// waiting in its tenant's queue for a slot, and the stop func of its
	// ctx watch (nil when it never queued or its ctx cannot end).
	waiting bool
	unwatch func() bool

	// Monotonic stamps (obs.Now) of the session's three clock reads:
	// accepted by Submit, started by its job, finished. QueueLatency,
	// Duration and both Pool.Observe windows are computed from them.
	queuedAt   int64
	startedAt  int64
	finishedAt int64

	done    chan struct{}
	onDone  func(*Session) // WithOnDone hook; nil when none
	err     error
	verdict Verdict
	stats   core.Stats
}

// ID returns the session's pool-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Name returns the session's diagnostic name.
func (s *Session) Name() string { return s.name }

// Tenant returns the fairness tenant the session was queued and
// accounted under.
func (s *Session) Tenant() string { return s.tenant }

// Done returns a channel closed when the session has finished.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session has finished and returns its error (the
// runtime's report, nil for a clean run).
func (s *Session) Wait() error {
	<-s.done
	return s.err
}

// Err returns the session's error. Valid after Wait/Done.
func (s *Session) Err() error {
	<-s.done
	return s.err
}

// Verdict returns the classified outcome. Valid after Wait/Done.
func (s *Session) Verdict() Verdict {
	<-s.done
	return s.verdict
}

// Stats returns the session runtime's final counters. ok is true only
// once the session has finished; before that it returns a zero Stats
// and false WITHOUT blocking. (The historical signature blocked on the
// session's done channel, so a "quick peek" at a session that had not
// completed — or never would — hung the caller; and returning the live
// struct instead would race the session job's final stats write. The
// guarded snapshot is both prompt and race-free: the done-channel
// receive orders this read after runSession's write.)
func (s *Session) Stats() (core.Stats, bool) {
	select {
	case <-s.done:
		return s.stats, true
	default:
		return core.Stats{}, false
	}
}

// Runtime returns the session's runtime — e.g. to read its Stats or
// TraceClose the sinks its TraceTo options installed. Valid after
// Wait/Done.
func (s *Session) Runtime() *core.Runtime {
	<-s.done
	return s.rt.Load()
}

// SchedStats reports the session's tasks on the shared scheduler, from
// its runtime's own counters: tasks started in total (the root, which
// runs on the session's job, included) and tasks started but not yet
// finished. Usable live — the per-session view a server dashboards while
// the session runs — and race-free: the runtime pointer is published
// atomically and both figures are atomic counters, read so that inflight
// is never negative. A mid-run read is, necessarily, already stale when
// it returns. Before the runtime exists both are zero; after Wait/Done
// inflight is exactly zero, because RunContext returns only once every
// task has finished.
func (s *Session) SchedStats() (submitted, inflight int64) {
	rt := s.rt.Load()
	if rt == nil {
		return 0, 0
	}
	st := rt.Stats()
	return st.Tasks, st.Tasks - st.Finished
}

// QueueLatency is how long the session waited for admission before its
// runtime started. Valid after Wait/Done.
func (s *Session) QueueLatency() time.Duration {
	<-s.done
	return time.Duration(s.startedAt - s.queuedAt)
}

// Duration is the session's execution time, admission wait excluded.
// Valid after Wait/Done.
func (s *Session) Duration() time.Duration {
	<-s.done
	return time.Duration(s.finishedAt - s.startedAt)
}
