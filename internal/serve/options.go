package serve

import (
	"repro/internal/chaos"
	"repro/internal/core"
)

// Option configures serving behaviour. Every option but WithRuntime acts
// at one scope and is inert at the other:
//
//   - Pool scope, New(opts...): WithMaxSessions, WithQueueDepth,
//     WithTenantWeight, WithChaos and WithDeadlineAdmission fix the
//     pool's admission geometry and policy for its lifetime.
//   - Submit scope, Pool.Submit(ctx, name, main, opts...): WithTenant
//     and WithOnDone are per session.
//   - WithRuntime acts at both: the pool-scope list is the base every
//     session starts from, and a submit-scope list lands after it, so a
//     per-session core option wins (the usual later-wins rule of a
//     core.Option list).
//
// The pool leads every runtime option list with the detector
// core.EnvDetector resolves and always appends its executor injection
// last, so sessions run on the shared scheduler by construction.
// TestOptionPrecedenceTable pins this table.
//
// An Option takes the resolved state by value and returns it updated, so
// resolving a Submit's options keeps them on the caller's stack: no
// pointer to them ever reaches an unknown function.
type Option func(options) options

// options is the resolved option state: the pool-scope settings New
// reads, then the submit-scope ones Submit reads.
type options struct {
	maxSessions   int
	queueDepth    int
	tenantWeights map[string]int
	chaos         *chaos.Injector
	admission     bool

	runtime []core.Option // both scopes
	tenant  string
	onDone  func(*Session)
}

func resolve(opts []Option) (o options) {
	for _, opt := range opts {
		if opt != nil {
			o = opt(o)
		}
	}
	return o
}

// WithMaxSessions bounds how many sessions run concurrently (pool scope;
// <= 0 selects the default of 8).
func WithMaxSessions(n int) Option {
	return func(o options) options { o.maxSessions = n; return o }
}

// WithQueueDepth bounds how many admitted-but-waiting sessions may queue
// PER TENANT behind the running ones (pool scope). 0 queues nothing:
// saturate-and-reject. The bound is per tenant so one backlogged tenant
// cannot monopolize the waiting room and starve the others' admission —
// the queue-side half of the WDRR fairness story.
func WithQueueDepth(n int) Option {
	return func(o options) options { o.queueDepth = n; return o }
}

// WithTenantWeight sets a tenant's weighted-fair share (pool scope;
// minimum 1, the default for any tenant never named). While several
// tenants have sessions waiting, admission slots are granted in weighted
// deficit round-robin order: a weight-3 tenant is admitted three
// sessions for every one of a weight-1 tenant.
func WithTenantWeight(tenant string, weight int) Option {
	return func(o options) options {
		if o.tenantWeights == nil {
			o.tenantWeights = make(map[string]int)
		}
		o.tenantWeights[tenant] = weight
		return o
	}
}

// WithRuntime appends core options to the session runtime's option list.
// At pool scope this is the base every session starts from; at submit
// scope the options are appended after the pool's base, so a
// per-session option overrides the pool's (later core.Option wins).
func WithRuntime(opts ...core.Option) Option {
	return func(o options) options { o.runtime = append(o.runtime, opts...); return o }
}

// WithTenant names the fairness tenant a session is accounted and
// queued under (submit scope; a session without one is DefaultTenant's).
// The tenant decides the session's WDRR queue, its weight, and its label
// on the per-tenant metrics (bounded by the cardinality guard — see
// internal/obs.LabelGuard).
func WithTenant(name string) Option {
	return func(o options) options { o.tenant = name; return o }
}

// WithChaos installs a fault injector on the pool (pool scope). Each
// Submit may then be forced into an ErrPoolSaturated rejection at the
// injector's PoolSaturate rate — the chaos harness's way of exercising
// saturation-retry paths on demand. Nil is the (default) no-op.
func WithChaos(in *chaos.Injector) Option {
	return func(o options) options { o.chaos = in; return o }
}

// WithDeadlineAdmission toggles deadline-aware admission control (pool
// scope). When enabled, a Submit whose ctx deadline cannot be met — less
// time remains than the pool's observed queue-wait p99 plus execution
// p99 (Pool.Observe) — is rejected synchronously with
// ErrDeadlineInfeasible instead of being admitted to miss its deadline
// in the queue.
func WithDeadlineAdmission(on bool) Option {
	return func(o options) options { o.admission = on; return o }
}

// WithOnDone registers fn as the session's completion hook (submit
// scope). fn runs exactly once per accepted session, on the goroutine
// that completed it: the session's own scheduler job after a run, the
// ctx watch when its ctx aborts it in the queue, or the Close caller
// when Close fails it there. By then the session is done — Wait returns
// and every accessor is valid — and its slot is released, so neither
// Wait callers nor the next session wait for fn. The pool's mutex is
// never held, so fn may Submit; Close waits for it to return. A hook
// runs on a shared scheduler worker, so fn should hand long waits to a
// timer rather than block on them.
func WithOnDone(fn func(*Session)) Option {
	return func(o options) options { o.onDone = fn; return o }
}
