package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// omitProg violates the ownership policy in Full mode (a promise is
// created and never set) and is invisible in Unverified mode — the
// mode-sensitive probe the precedence tests route on.
func omitProg(root *core.Task) error {
	_ = core.NewPromise[int](root)
	return nil
}

// TestOptionPrecedenceTable pins the documented option precedence:
// built-in defaults < pool scope < submit scope, with the submit-scope
// WithRuntime list landing after the pool-scope base (later core.Option
// wins). See the Option doc comment for the table this test enforces.
func TestOptionPrecedenceTable(t *testing.T) {
	submit := func(p *Pool, opts ...Option) *Session {
		t.Helper()
		s, err := p.Submit(t.Context(), "probe", omitProg, opts...)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		s.Wait()
		return s
	}

	// Row 1: defaults. Full verification is the built-in mode, so the
	// omitted set is convicted; the tenant is "default".
	p := New()
	s := submit(p)
	if v := s.Verdict(); v != VerdictPolicy {
		t.Errorf("defaults: verdict %v, want policy", v)
	}
	if tn := s.Tenant(); tn != DefaultTenant {
		t.Errorf("defaults: tenant %q, want %q", tn, DefaultTenant)
	}
	p.Close()

	// Row 2: pool scope overrides defaults — Unverified base mode hides
	// the omission; WithTenant at pool scope renames the default tenant.
	p = New(WithRuntime(core.WithMode(core.Unverified)), WithTenant("base"))
	s = submit(p)
	if v := s.Verdict(); v != VerdictClean {
		t.Errorf("pool scope: verdict %v, want clean", v)
	}
	if tn := s.Tenant(); tn != "base" {
		t.Errorf("pool scope: tenant %q, want base", tn)
	}

	// Row 3: submit scope overrides pool scope — a per-session Full mode
	// lands after the pool's Unverified base and wins; a per-session
	// tenant overrides the pool default.
	s = submit(p, WithRuntime(core.WithMode(core.Full)), WithTenant("gold"))
	if v := s.Verdict(); v != VerdictPolicy {
		t.Errorf("submit scope: verdict %v, want policy (submit wins)", v)
	}
	if tn := s.Tenant(); tn != "gold" {
		t.Errorf("submit scope: tenant %q, want gold", tn)
	}

	// Row 4: executor injection is last at either scope — a WithExecutor
	// smuggled through Submit cannot detach the session from the shared
	// scheduler: the session's job and its one child both reach the pool.
	smuggled := &inlineExecutor{}
	before := p.Executor().SchedStats()
	s, err := p.Submit(t.Context(), "spawner", func(root *core.Task) error {
		c, err := root.Async(func(*core.Task) error { return nil })
		if err != nil {
			return err
		}
		return c.Wait()
	}, WithRuntime(core.WithExecutor(smuggled)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if smuggled.ran {
		t.Error("submit-scope WithExecutor overrode the pool's executor injection")
	}
	after := p.Executor().SchedStats()
	if got := after.Spawned + after.Reused - before.Spawned - before.Reused; got != 2 {
		t.Errorf("pool took %d submissions for the session and its child, want 2", got)
	}
	p.Close()
}

// TestPoolWDRRAdmissionOrder pins the weighted-fair dequeue: with one
// slot and two permanently backlogged tenants at 3:1 weights, admission
// grants follow the WDRR cycle — every window of 4 consecutive
// admissions serves gold 3 times and bronze once.
func TestPoolWDRRAdmissionOrder(t *testing.T) {
	p := New(
		WithMaxSessions(1),
		WithQueueDepth(16),
		WithTenantWeight("gold", 3),
		WithTenantWeight("bronze", 1),
		WithRuntime(core.WithMode(core.Unverified)),
	)
	defer p.Close()

	// Occupy the only slot so everything below queues before any
	// dispatch happens; the WDRR order is then fully deterministic.
	gate := make(chan struct{})
	blocker, err := p.Submit(t.Context(), "blocker", func(root *core.Task) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, p, 1)

	order := make(chan string, 16)
	var handles []*Session
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			s, err := p.Submit(t.Context(), tenant, func(root *core.Task) error {
				order <- tenant
				return nil
			}, WithTenant(tenant))
			if err != nil {
				t.Fatalf("submit %s: %v", tenant, err)
			}
			handles = append(handles, s)
		}
	}
	enqueue("gold", 9)
	enqueue("bronze", 3)

	close(gate)
	blocker.Wait()
	for _, s := range handles {
		s.Wait()
	}
	close(order)

	var got []string
	for tn := range order {
		got = append(got, tn)
	}
	if len(got) != 12 {
		t.Fatalf("ran %d sessions, want 12", len(got))
	}
	for w := 0; w < 3; w++ {
		gold := 0
		for _, tn := range got[w*4 : w*4+4] {
			if tn == "gold" {
				gold++
			}
		}
		if gold != 3 {
			t.Fatalf("admission window %d served gold %d/4, want 3/4 (order: %v)", w, gold, got)
		}
	}
}

// TestDeadlineAdmissionSheds exercises deadline-aware admission: once
// the latency windows are warm, a Submit whose deadline is below
// queue-wait p99 + exec p99 is rejected with ErrDeadlineInfeasible
// (typed, with the numbers), a generous deadline is admitted, and a
// submit-scope WithDeadlineAdmission(false) forces one session through
// a shedding pool.
func TestDeadlineAdmissionSheds(t *testing.T) {
	p := New(
		WithMaxSessions(2),
		WithDeadlineAdmission(true),
		WithRuntime(core.WithMode(core.Unverified)),
	)
	defer p.Close()

	slow := func(root *core.Task) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}

	// Cold pool: no latency evidence yet, every (live) deadline is
	// admissible — including one the 5ms program will obviously miss.
	ctx, cancel := context.WithTimeout(t.Context(), time.Millisecond)
	s, err := p.Submit(ctx, "cold", slow)
	if err != nil {
		t.Fatalf("cold-pool submit shed: %v", err)
	}
	s.Wait()
	cancel()

	// Warm the execution window past admissionMinSamples.
	for i := 0; i < admissionMinSamples; i++ {
		s, err := p.Submit(t.Context(), "warm", slow)
		if err != nil {
			t.Fatal(err)
		}
		s.Wait()
	}

	// Infeasible: ~5ms exec p99 cannot fit in 1ms.
	ctx, cancel = context.WithTimeout(t.Context(), time.Millisecond)
	defer cancel()
	_, err = p.Submit(ctx, "tight", slow)
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("tight deadline admitted: err = %v", err)
	}
	var de *DeadlineInfeasibleError
	if !errors.As(err, &de) || de.Need <= 0 {
		t.Fatalf("shed error not typed with the admission math: %#v", err)
	}
	if st := p.Stats(); st.RejectedDeadline != 1 {
		t.Fatalf("RejectedDeadline = %d, want 1", st.RejectedDeadline)
	}

	// Same infeasible deadline, admission disabled at submit scope:
	// submit wins, the session runs (and gets canceled by its own ctx).
	s, err = p.Submit(ctx, "forced", slow, WithDeadlineAdmission(false))
	if err != nil {
		t.Fatalf("submit-scope admission override ignored: %v", err)
	}
	s.Wait()

	// Feasible deadline admits.
	ctx2, cancel2 := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel2()
	s, err = p.Submit(ctx2, "roomy", slow)
	if err != nil {
		t.Fatalf("roomy deadline shed: %v", err)
	}
	if s.Wait() != nil || s.Verdict() != VerdictClean {
		t.Fatalf("roomy session: err %v verdict %v", s.Err(), s.Verdict())
	}
}

// TestPoolDrainUnderLoad closes the pool while submitters are still
// hammering it and checks the drain contract: every accepted session
// reaches a terminal verdict, sessions caught in the admission queue
// fail promptly with ErrPoolClosed and VerdictCanceled, late Submits are
// rejected synchronously, and no goroutine outlives Close.
func TestPoolDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(
		WithMaxSessions(4),
		WithQueueDepth(8),
		WithTenantWeight("gold", 3),
		WithRuntime(core.WithMode(core.Unverified)),
	)

	var (
		mu       sync.Mutex
		accepted []*Session
		lateRej  int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := "gold"
			if w%2 == 1 {
				tenant = "bronze"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := p.Submit(context.Background(), tenant, func(root *core.Task) error {
					time.Sleep(200 * time.Microsecond)
					return nil
				}, WithTenant(tenant))
				mu.Lock()
				if err == nil {
					accepted = append(accepted, s)
				} else if errors.Is(err, ErrPoolClosed) {
					lateRej++
				} else if !errors.Is(err, ErrPoolSaturated) {
					t.Errorf("unexpected submit error: %v", err)
				}
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let load build up
	p.Close()
	close(stop)
	wg.Wait()

	terminal := map[Verdict]int{}
	for _, s := range accepted {
		select {
		case <-s.Done():
		default:
			t.Fatalf("accepted session %d not terminal after Close returned", s.ID())
		}
		terminal[s.Verdict()]++
		if errors.Is(s.Err(), ErrPoolClosed) && s.Verdict() != VerdictCanceled {
			t.Fatalf("queued session %d closed with verdict %v", s.ID(), s.Verdict())
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no sessions accepted before Close")
	}
	if lateRej == 0 {
		t.Log("no post-Close submissions observed (drain was instant); contract still holds")
	}
	t.Logf("accepted %d sessions (verdicts %v), %d late rejections", len(accepted), terminal, lateRej)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through Pool.Close under load: %d, baseline %d", runtime.NumGoroutine(), before)
}

// inlineExecutor runs every job on the submitting goroutine and records
// that it ran one.
type inlineExecutor struct{ ran bool }

func (e *inlineExecutor) Execute(j core.Job) { e.ran = true; j.Run() }

func (e *inlineExecutor) ExecuteBatch(js []core.Job) {
	for _, j := range js {
		e.Execute(j)
	}
}
