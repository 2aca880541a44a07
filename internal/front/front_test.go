package front

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

func newTestFront(t *testing.T, extra ...serve.Option) *Front {
	t.Helper()
	opts := append([]serve.Option{
		serve.WithMaxSessions(4),
		serve.WithQueueDepth(32),
	}, extra...)
	f, err := New(Config{
		Addr: "127.0.0.1:0",
		Keys: map[string]string{"gold-key": "gold", "bronze-key": "bronze"},
		Serve: append(opts,
			serve.WithTenantWeight("gold", 3),
			serve.WithTenantWeight("bronze", 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFrontEndToEnd is the wire smoke test: handshake, remote submission
// of a clean workload and the Listing 1 deadlock, streamed verdicts with
// server-side timings, and trace bytes on request.
func TestFrontEndToEnd(t *testing.T) {
	f := newTestFront(t)
	defer f.Shutdown(context.Background())

	c, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Tenant() != "gold" {
		t.Fatalf("tenant = %q, want gold", c.Tenant())
	}

	clean, err := c.Submit(t.Context(), SubmitRequest{Workload: "Sieve", Scale: "small"})
	if err != nil {
		t.Fatalf("submit Sieve: %v", err)
	}
	dl, err := c.Submit(t.Context(), SubmitRequest{Workload: "Deadlock", Trace: true})
	if err != nil {
		t.Fatalf("submit Deadlock: %v", err)
	}

	if err := clean.Wait(); err != nil || clean.Verdict() != serve.VerdictClean {
		t.Fatalf("Sieve: err %v verdict %v", err, clean.Verdict())
	}
	if dl.Wait() == nil || dl.Verdict() != serve.VerdictDeadlock {
		t.Fatalf("Deadlock: err %v verdict %v", dl.Err(), dl.Verdict())
	}
	var re *RemoteError
	if !errors.As(dl.Err(), &re) || !strings.Contains(re.Msg, "deadlock") {
		t.Fatalf("remote error not reconstructed: %#v", dl.Err())
	}
	if len(dl.Trace()) == 0 {
		t.Fatal("requested trace bytes missing from verdict")
	}
	if clean.Tenant() != "gold" || clean.Name() != "Sieve" {
		t.Fatalf("handle identity: tenant %q name %q", clean.Tenant(), clean.Name())
	}
}

// TestFrontRejections covers the synchronous refusal paths: bad API key
// at handshake, unknown workload, and version skew.
func TestFrontRejections(t *testing.T) {
	f := newTestFront(t)
	defer f.Shutdown(context.Background())

	if _, err := Dial(f.Addr(), "wrong-key"); err == nil || !strings.Contains(err.Error(), "unknown API key") {
		t.Fatalf("bad key: err = %v", err)
	}

	c, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Submit(t.Context(), SubmitRequest{Workload: "NoSuchThing"})
	if err == nil || !strings.Contains(err.Error(), RejectUnknownWorkload) {
		t.Fatalf("unknown workload: err = %v", err)
	}
}

// TestFrontDeadlineAdmissionOverWire drives the server's latency window
// warm through the wire, then checks an infeasible remote deadline is
// shed with an error errors.Is-matchable against
// serve.ErrDeadlineInfeasible — the same sentinel the local API uses —
// and counted in front_rejected_total{reason="deadline"}.
func TestFrontDeadlineAdmissionOverWire(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Install(reg)
	t.Cleanup(func() { obs.Install(nil) })

	slow := func(root *core.Task) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	f, err := New(Config{
		Addr:     "127.0.0.1:0",
		Keys:     map[string]string{"k": "gold"},
		Registry: Registry{"Slow": func(workloads.Scale) core.TaskFunc { return slow }},
		Serve:    []serve.Option{serve.WithMaxSessions(2), serve.WithDeadlineAdmission(true)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())

	c, err := Dial(f.Addr(), "k")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		s, err := c.Submit(t.Context(), SubmitRequest{Workload: "Slow"})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}
	_, err = c.Submit(t.Context(), SubmitRequest{Workload: "Slow", Deadline: time.Millisecond})
	if !errors.Is(err, serve.ErrDeadlineInfeasible) {
		t.Fatalf("infeasible remote deadline admitted: %v", err)
	}
	// A roomy deadline still goes through.
	s, err := c.Submit(t.Context(), SubmitRequest{Workload: "Slow", Deadline: 10 * time.Second})
	if err != nil {
		t.Fatalf("roomy deadline shed: %v", err)
	}
	if s.Wait() != nil {
		t.Fatal(s.Err())
	}

	snap := reg.Snapshot()
	if got := snap.Vectors["front_rejected_total"]["reason=deadline"]; got != 1 {
		t.Fatalf("front_rejected_total{reason=deadline} = %d, want 1 (vec %v)",
			got, snap.Vectors["front_rejected_total"])
	}
	if st := f.Pool().Stats(); st.RejectedDeadline != 1 {
		t.Fatalf("pool RejectedDeadline = %d, want 1", st.RejectedDeadline)
	}
}

// TestFrontCancelOverWire: a client cancel aborts a running remote
// session, which still delivers a verdict — canceled.
func TestFrontCancelOverWire(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	// Blocks until cancelled: the setter task parks on a channel the test
	// never closes, but bails out through its task context on
	// cancellation, so the session unwinds instead of deadlocking.
	blocked := func(root *core.Task) error {
		p := core.NewPromise[int](root)
		if _, err := root.Async(func(t2 *core.Task) error {
			select {
			case <-hold:
				return p.Set(t2, 1)
			case <-t2.Context().Done():
				return t2.Context().Err()
			}
		}, p); err != nil {
			return err
		}
		_, err := p.Get(root)
		return err
	}
	f, err := New(Config{
		Addr:     "127.0.0.1:0",
		Keys:     map[string]string{"k": "t"},
		Registry: Registry{"Block": func(workloads.Scale) core.TaskFunc { return blocked }},
		Serve:    []serve.Option{serve.WithMaxSessions(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())

	c, err := Dial(f.Addr(), "k")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Submit(t.Context(), SubmitRequest{Workload: "Block"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(s); err != nil {
		t.Fatal(err)
	}
	if s.Wait() == nil || s.Verdict() != serve.VerdictCanceled {
		t.Fatalf("canceled session: err %v verdict %v", s.Err(), s.Verdict())
	}
}

// TestFrontGracefulDrainUnderLoad is the drain acceptance test: shut the
// front down while remote submitters are still active and check the
// contract — every accepted session gets a terminal verdict, submissions
// during the drain are rejected with the draining reason (mapped to
// serve.ErrPoolClosed client-side), and the front leaks no goroutines.
//
// The drain starts once every client has a session accepted, and a
// queue depth of 2 per tenant bounds the backlog to 4 running plus 4
// queued sessions: what the drain must finish is a few Sieve runs, which
// the 10 s deadline covers under -race with a wide margin. The log line
// compares the drain time with the drained sessions' own run time.
func TestFrontGracefulDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	f := newTestFront(t, serve.WithQueueDepth(2))

	var clients []*Client
	for _, key := range []string{"gold-key", "bronze-key"} {
		c, err := Dial(f.Addr(), key)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	var (
		mu       sync.Mutex
		accepted []*RemoteSession
		drainRej int
	)
	stop := make(chan struct{})
	firstAccept := make([]chan struct{}, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		firstAccept[i] = make(chan struct{})
		wg.Add(1)
		go func(c *Client, first chan struct{}) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := c.Submit(context.Background(), SubmitRequest{Workload: "Sieve", Scale: "small"})
				mu.Lock()
				switch {
				case err == nil:
					if first != nil {
						close(first)
						first = nil
					}
					accepted = append(accepted, s)
				case errors.Is(err, serve.ErrPoolClosed):
					drainRej++
				case errors.Is(err, serve.ErrPoolSaturated):
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
				mu.Unlock()
			}
		}(c, firstAccept[i])
	}

	for _, first := range firstAccept {
		select {
		case <-first:
		case <-time.After(10 * time.Second):
			t.Fatal("no session accepted before drain")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainStart := time.Now()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not finish inside its deadline: %v", err)
	}
	drainTime := time.Since(drainStart)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	verdicts := map[serve.Verdict]int{}
	var runTime time.Duration
	for _, s := range accepted {
		select {
		case <-s.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted session %d has no terminal verdict after drain", s.ID())
		}
		verdicts[s.Verdict()]++
		runTime += s.Duration()
	}
	if verdicts[serve.VerdictDeadlock] != 0 || verdicts[serve.VerdictPolicy] != 0 || verdicts[serve.VerdictFailed] != 0 {
		t.Fatalf("false verdicts during drain: %v", verdicts)
	}
	t.Logf("accepted %d (verdicts %v), %d drain rejections; drain took %v, accepted sessions ran %v in total",
		len(accepted), verdicts, drainRej, drainTime.Round(time.Millisecond), runTime)

	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through Front.Shutdown: %d, baseline %d", runtime.NumGoroutine(), before)
}

// TestFrontWeightedFairnessOverWire backlogs two remote tenants with
// 3:1 weights through one slot and checks completed throughput tracks
// the weights while both stay backlogged.
func TestFrontWeightedFairnessOverWire(t *testing.T) {
	gate := make(chan struct{})
	gated := func(root *core.Task) error {
		<-gate
		return nil
	}
	reg := DefaultRegistry()
	reg["Gated"] = func(workloads.Scale) core.TaskFunc { return gated }
	f, err := New(Config{
		Addr:     "127.0.0.1:0",
		Keys:     map[string]string{"gold-key": "gold", "bronze-key": "bronze"},
		Registry: reg,
		Serve: []serve.Option{
			serve.WithMaxSessions(1),
			serve.WithQueueDepth(32),
			serve.WithTenantWeight("gold", 3),
			serve.WithTenantWeight("bronze", 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())

	gold, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	bronze, err := Dial(f.Addr(), "bronze-key")
	if err != nil {
		t.Fatal(err)
	}
	defer bronze.Close()

	// Occupy the slot, then backlog both tenants.
	blocker, err := gold.Submit(t.Context(), SubmitRequest{Workload: "Gated"})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*RemoteSession
	for i := 0; i < 12; i++ {
		s, err := gold.Submit(t.Context(), SubmitRequest{Workload: "Gated"})
		if err != nil {
			t.Fatalf("gold %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}
	for i := 0; i < 12; i++ {
		s, err := bronze.Submit(t.Context(), SubmitRequest{Workload: "Gated"})
		if err != nil {
			t.Fatalf("bronze %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}
	close(gate)
	blocker.Wait()
	// The WDRR admission ORDER is pinned deterministically by the
	// serve-level TestPoolWDRRAdmissionOrder; over the wire, verdict
	// arrival order across two connections is not observable without
	// racing clocks, so this test asserts the end-to-end plumbing: every
	// backlogged session of both tenants completes cleanly with its
	// tenant attribution intact.
	byTenant := map[string]int{}
	for _, s := range sessions {
		if err := s.Wait(); err != nil {
			t.Fatalf("session %s/%d: %v", s.Tenant(), s.ID(), err)
		}
		byTenant[s.Tenant()]++
	}
	if byTenant["gold"] != 12 || byTenant["bronze"] != 12 {
		t.Fatalf("per-tenant completion %v, want 12/12", byTenant)
	}
}

// Listing 1's report under default names when t2 closes the cycle, the
// text core's TestListing1AlarmText pins, and when the root closes it.
const (
	listing1Report = "core: deadlock cycle of 2 task(s): task task-2 awaits promise-1 -> task main awaits promise-2 -> owned by task task-2\n" +
		"core: omitted set: task task-2 terminated owning unfulfilled promise(s): promise-2\n" +
		"core: broken promise promise-2: owner task task-2 terminated without fulfilling it: " +
		"core: deadlock cycle of 2 task(s): task task-2 awaits promise-1 -> task main awaits promise-2 -> owned by task task-2\n" +
		"core: omitted set: task main terminated owning unfulfilled promise(s): promise-1"
	listing1ReportRootCloses = "core: deadlock cycle of 2 task(s): task main awaits promise-2 -> task task-2 awaits promise-1 -> owned by task main\n" +
		"core: omitted set: task main terminated owning unfulfilled promise(s): promise-1\n" +
		"core: broken promise promise-1: owner task main terminated without fulfilling it: " +
		"core: deadlock cycle of 2 task(s): task main awaits promise-2 -> task task-2 awaits promise-1 -> owned by task main\n" +
		"core: omitted set: task task-2 terminated owning unfulfilled promise(s): promise-2"
)

// TestRemoteListing1ReportText: a remote Listing 1 verdict carries the
// report's text byte for byte. Which task closes the cycle depends on
// scheduling, so sessions are submitted until one where t2 closes it,
// the order core's golden pins; every session's text must be one of the
// two.
func TestRemoteListing1ReportText(t *testing.T) {
	f := newTestFront(t)
	defer f.Shutdown(context.Background())
	c, err := Dial(f.Addr(), "gold-key")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		s, err := c.Submit(t.Context(), SubmitRequest{Workload: "Deadlock"})
		if err != nil {
			t.Fatal(err)
		}
		if s.Wait() == nil || s.Verdict() != serve.VerdictDeadlock {
			t.Fatalf("verdict %s, err %v", s.Verdict(), s.Err())
		}
		switch got := s.Err().Error(); got {
		case listing1Report:
			return
		case listing1ReportRootCloses:
		default:
			t.Fatalf("remote report (%d bytes):\n%s\nwant (%d bytes):\n%s", len(got), got, len(listing1Report), listing1Report)
		}
	}
	t.Fatal("no session in 100 had t2 close the cycle")
}
