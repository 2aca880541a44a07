package main

// Open-loop front-end driving (-open RATE): instead of closed-loop
// drivers that wait for each session before submitting the next, an
// arrival process fires submissions at the network front-end at a
// configured aggregate rate, independent of how fast the server keeps
// up — the only mode that exercises overload honestly, since a
// closed-loop driver slows down with the server and can never push it
// past capacity. Arrivals are Poisson (exponential inter-arrival); the
// -shape flag modulates the instantaneous rate (steady, bursty square
// wave, diurnal sinusoid) over -shape-period.
//
// Traffic goes through a real TCP front (internal/front): self-hosted
// on a loopback ephemeral port unless -front points at an external
// frontd. -tenants declares the tenant set with weighted-fair shares;
// each tenant gets its own API key and client connection, and arrivals
// split evenly across tenants so a backlogged run measures the
// weighted-fair dequeue directly: completed throughput must track the
// weights. -fairness TOL turns that into a hard check.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/serve"
)

// submitter is the client surface the arrival loop drives: the plain
// one-connection front.Client normally, the retrying/reconnecting
// front.ResilientClient under -chaos.
type submitter interface {
	Submit(ctx context.Context, req front.SubmitRequest) (*front.RemoteSession, error)
	Close() error
}

// chaosReport is the "chaos" section written to the JSON output: the
// injector's fault counts plus the invariant verdicts the run enforced.
type chaosReport struct {
	GeneratedAt string  `json:"generated_at"`
	Rate        float64 `json:"rate"`
	Seed        int64   `json:"seed"`
	Duration    string  `json:"duration"`
	OpenRate    float64 `json:"open_rate"`
	// ServerFaults/ClientFaults are the per-kind injected fault counts
	// on each side of the wire.
	ServerFaults map[string]int64 `json:"server_faults"`
	ClientFaults map[string]int64 `json:"client_faults"`
	Offered      int64            `json:"offered"`
	Completed    int64            `json:"completed"`
	Rejected     int64            `json:"rejected"`
	Retries      int64            `json:"retries"`
	// TerminalOutcomeOK: offered == completed + rejected — every
	// submission ended in exactly one terminal outcome.
	TerminalOutcomeOK bool  `json:"terminal_outcome_ok"`
	FalseVerdicts     int64 `json:"false_verdicts"`
	// UnmatchedVerdicts counts verdict frames that matched no pending
	// submission (a double delivery would land here). Must be 0.
	UnmatchedVerdicts int64 `json:"unmatched_verdicts"`
	SpilledVerdicts   int   `json:"spilled_verdicts"`
	// UnacceptedRuns counts the spilled verdicts of sessions that ran
	// (verdict not canceled) but whose accept frame was never written.
	// Their client saw the submission fail, so it retried it (the
	// session ran twice) or gave it up (it ran unseen).
	UnacceptedRuns   int `json:"unaccepted_runs"`
	LeakedGoroutines int `json:"leaked_goroutines"`
}

// parseTenants parses the -tenants list ("gold:3,bronze:1"); tenant
// names must be distinct.
func parseTenants(spec string) ([]weighted, error) {
	list, err := parseWeighted(spec)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, t := range list {
		if t.name == "" || seen[t.name] {
			return nil, fmt.Errorf("bad tenant spec %q: empty or duplicate name", spec)
		}
		seen[t.name] = true
	}
	return list, nil
}

// rateAt returns the instantaneous arrival rate at elapsed time t for
// the given shape. Every shape averages to the base rate over a full
// period, so the offered load is comparable across shapes.
func rateAt(base float64, shape string, period time.Duration, t time.Duration) float64 {
	if period <= 0 {
		return base
	}
	frac := float64(t%period) / float64(period)
	switch shape {
	case "bursty":
		// Square wave: 1.8x for the first half-period, 0.2x for the rest.
		if frac < 0.5 {
			return base * 1.8
		}
		return base * 0.2
	case "diurnal":
		// Sinusoid between 0.2x and 1.8x.
		return base * (1 + 0.8*math.Sin(2*math.Pi*frac))
	default: // steady
		return base
	}
}

// tenantStat accumulates one tenant's traffic over the run.
type tenantStat struct {
	offered   int64
	accepted  int64
	completed int64
	rejected  map[string]int64
}

// tenantReport is the per-tenant row of the JSON report.
type tenantReport struct {
	Name         string           `json:"name"`
	Weight       int              `json:"weight"`
	Offered      int64            `json:"offered"`
	Accepted     int64            `json:"accepted"`
	Completed    int64            `json:"completed"`
	CompletedPS  float64          `json:"completed_per_sec"`
	Rejected     map[string]int64 `json:"rejected,omitempty"`
	NormPerShare float64          `json:"completed_per_share"`
}

// frontReport is the "front" section written to the JSON output.
type frontReport struct {
	GeneratedAt   string             `json:"generated_at"`
	Rate          float64            `json:"rate"`
	Shape         string             `json:"shape"`
	Duration      string             `json:"duration"`
	Scale         string             `json:"scale"`
	Mode          string             `json:"mode"`
	Mix           string             `json:"mix"`
	Inject        float64            `json:"inject"`
	Deadline      string             `json:"deadline,omitempty"`
	SelfHosted    bool               `json:"self_hosted"`
	Tenants       []tenantReport     `json:"tenants"`
	Scenarios     []scenarioReport   `json:"scenarios"`
	Total         scenarioReport     `json:"total"`
	RejectReasons map[string]int64   `json:"reject_reasons"`
	Misclassified int64              `json:"misclassified"`
	FairnessTol   float64            `json:"fairness_tol,omitempty"`
	FairnessOK    *bool              `json:"fairness_ok,omitempty"`
	Leaked        int                `json:"leaked_goroutines"`
	Pool          *serve.PoolStats   `json:"pool,omitempty"`
	Observe       *serve.Observation `json:"observe,omitempty"`
}

// rejectExhausted is the reject reason of a submission a resilient
// client gave up on. It is the client's own verdict, never the server's.
const rejectExhausted = "exhausted"

// rejectReason classifies a Submit error the way the server's
// front_rejected_total counter does, via the shared sentinels. A
// resilient client (under chaos) returns a Retryable error only once
// its attempts are exhausted; that error is classified as exhausted,
// not by its last cause, because a lost connection wraps
// serve.ErrPoolClosed and would otherwise read as draining.
func rejectReason(err error, resilient bool) string {
	if resilient && front.Retryable(err) {
		return rejectExhausted
	}
	switch {
	case errors.Is(err, serve.ErrDeadlineInfeasible):
		return front.RejectDeadline
	case errors.Is(err, serve.ErrPoolSaturated):
		return front.RejectSaturated
	case errors.Is(err, serve.ErrPoolClosed):
		return front.RejectDraining
	default:
		return "other"
	}
}

// runOpen drives the open-loop mode end to end.
func runOpen(cfg config, led *ledger) error {
	goroutinesBefore := runtime.NumGoroutine()

	// Chaos: two seeded injectors, one per side of the wire, so each
	// side's fault schedule is reproducible independently. The server one
	// also forces pool-saturation rejections; delays stay small relative
	// to the run so injected latency does not swamp the arrival schedule.
	// -chaos RATE drives a fault MIX, not a flat per-op probability:
	// benign faults (read/write delays, forced pool saturation) fire at
	// RATE per operation, connection-fatal ones (resets, partial writes,
	// handshake drops) at RATE/10. The distinction matters because every
	// I/O op on the shared per-tenant connection rolls the dice — at a
	// few hundred ops/s a flat 5% fatal rate kills the connection every
	// ~20 ops and the run measures nothing but reconnect storms. The
	// mix still resets connections dozens of times over a multi-second
	// run, which is what the recovery invariants need.
	chaosOn := cfg.chaosRate > 0
	var srvChaos, cliChaos *chaos.Injector
	if chaosOn {
		fatal := cfg.chaosRate / 10
		srvChaos = chaos.New(cfg.chaosSeed).
			SetRate(chaos.ReadDelay, cfg.chaosRate).
			SetRate(chaos.WriteDelay, cfg.chaosRate).
			SetRate(chaos.PoolSaturate, cfg.chaosRate).
			SetRate(chaos.ConnReset, fatal).
			SetRate(chaos.PartialWrite, fatal).
			SetRate(chaos.HandshakeDrop, fatal)
		cliChaos = chaos.New(cfg.chaosSeed+1).
			SetRate(chaos.ReadDelay, cfg.chaosRate).
			SetRate(chaos.WriteDelay, cfg.chaosRate).
			SetRate(chaos.ConnReset, fatal).
			SetRate(chaos.PartialWrite, fatal)
	}

	// Self-host the front unless -front names an external one. The
	// self-hosted pool gets the shared options surface: sizing, the
	// tenant weights from -tenants, deadline admission, runtime mode.
	var f *front.Front
	addr := cfg.frontAddr
	if addr == "" {
		keys := map[string]string{}
		sopts := []serve.Option{
			serve.WithMaxSessions(cfg.sessions),
			serve.WithQueueDepth(cfg.queue),
			serve.WithRuntime(cfg.runtime...),
			serve.WithDeadlineAdmission(cfg.admission),
			serve.WithChaos(srvChaos),
		}
		for _, ts := range cfg.tenants {
			keys[ts.name+"-key"] = ts.name
			sopts = append(sopts, serve.WithTenantWeight(ts.name, ts.weight))
		}
		fcfg := front.Config{Addr: "127.0.0.1:0", Keys: keys, Serve: sopts, Chaos: srvChaos}
		if chaosOn {
			// Supervision tight enough to matter inside a short run.
			fcfg.IdleTimeout = 5 * time.Second
			fcfg.WriteTimeout = 2 * time.Second
		}
		var err error
		if f, err = front.New(fcfg); err != nil {
			return fmt.Errorf("front: %w", err)
		}
		addr = f.Addr()
	}

	clients := make([]submitter, len(cfg.tenants))
	rclients := make([]*front.ResilientClient, len(cfg.tenants)) // non-nil under chaos
	tenantNames := make([]string, len(cfg.tenants))
	for i, ts := range cfg.tenants {
		tenantNames[i] = fmt.Sprintf("%s:%d", ts.name, ts.weight)
		if chaosOn {
			rc, err := front.DialResilient(addr, ts.name+"-key", front.DialOptions{
				Chaos:             cliChaos,
				HeartbeatInterval: time.Second,
			})
			if err != nil {
				return fmt.Errorf("dial %s as %s: %w", addr, ts.name, err)
			}
			defer rc.Close()
			rclients[i] = rc
			clients[i] = rc
			continue
		}
		c, err := front.Dial(addr, ts.name+"-key")
		if err != nil {
			return fmt.Errorf("dial %s as %s: %w", addr, ts.name, err)
		}
		defer c.Close()
		clients[i] = c
	}

	fmt.Fprintf(os.Stderr, "loadgen: open-loop %.0f/s (%s/%v) -> %s, tenants %s, mix %q, %v, scale=%s mode=%s admission=%v deadline=%q\n",
		cfg.rate, cfg.shape, cfg.shapePeriod, addr, strings.Join(tenantNames, ","), cfg.mixSpec, cfg.dur, cfg.scale, cfg.mode, cfg.admission, cfg.deadlineSpec)
	if chaosOn {
		fmt.Fprintf(os.Stderr, "loadgen: chaos on: rate=%.2f seed=%d (server faults seeded %d, client faults seeded %d)\n",
			cfg.chaosRate, cfg.chaosSeed, cfg.chaosSeed, cfg.chaosSeed+1)
	}

	stats := newSessionStats(cfg.mix, chaosOn, led)
	tstats := make([]*tenantStat, len(cfg.tenants))
	for i := range tstats {
		tstats[i] = &tenantStat{rejected: map[string]int64{}}
	}
	var mu sync.Mutex
	rejectReasons := map[string]int64{}

	// The arrival process: exponential inter-arrival at the (possibly
	// shape-modulated) rate; each arrival draws a tenant uniformly — the
	// offered load is equal per tenant, so under backlog the COMPLETED
	// ratio is the weighted-fair dequeue's doing, nothing else's.
	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()
	var wg sync.WaitGroup
	// Arrival times are generated on an absolute schedule (next is the
	// elapsed-time offset of the next arrival) and the loop sleeps until
	// each one comes due: sleep and dispatch overhead then eat into the
	// gaps instead of stretching them, so the offered rate actually IS
	// the configured rate — the defining property of an open loop.
	for next := time.Duration(0); ; {
		r := rateAt(cfg.rate, cfg.shape, cfg.shapePeriod, next)
		if r <= 0 {
			r = cfg.rate * 0.01
		}
		next += time.Duration(rng.ExpFloat64() / r * float64(time.Second))
		if next >= cfg.dur {
			break
		}
		if d := next - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		ti := rng.Intn(len(cfg.tenants))
		sc, dl := cfg.mix.draw(rng)
		mu.Lock()
		tstats[ti].offered++
		mu.Unlock()
		wg.Add(1)
		go func(ti int, sc scenario, dl time.Duration) {
			defer wg.Done()
			sess, err := clients[ti].Submit(context.Background(), front.SubmitRequest{
				Workload: sc.name, Scale: cfg.scale, Deadline: dl,
			})
			if err != nil {
				reason := rejectReason(err, chaosOn)
				mu.Lock()
				tstats[ti].rejected[reason]++
				rejectReasons[reason]++
				mu.Unlock()
				// An admission shed must only ever hit requests that
				// actually carried a deadline: shedding a deadline-free
				// request as "infeasible" is a misclassification.
				if reason == front.RejectDeadline && dl == 0 {
					led.charge(&led.misclassified, "MISCLASSIFIED: deadline rejection for deadline-free %s: %v", sc.name, err)
				}
				if cfg.verbose {
					fmt.Fprintf(os.Stderr, "loadgen: reject %s: %v\n", sc.name, err)
				}
				return
			}
			sess.Wait()
			mu.Lock()
			tstats[ti].accepted++
			tstats[ti].completed++
			mu.Unlock()
			stats.record(sc, dl, sess, true)
		}(ti, sc, dl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Take the windowed view before the drain, then shut the self-hosted
	// front down gracefully and check nothing survived it.
	var ps *serve.PoolStats
	var observation *serve.Observation
	if f != nil {
		obsv := f.Pool().Observe()
		observation = &obsv
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := f.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: front shutdown: %v\n", err)
		}
		scancel()
		p := f.Pool().Stats()
		ps = &p
		led.eventsDropped = p.EventsDropped
		for _, c := range clients {
			c.Close()
		}
		led.leaked = settleLeaks(runtime.NumGoroutine, goroutinesBefore, leakWindow)
	}

	// Every submission must have ended in exactly one terminal outcome.
	var offered, completed, rejected int64
	for _, t := range tstats {
		offered += t.offered
		completed += t.completed
	}
	for _, n := range rejectReasons {
		rejected += n
	}
	led.equal("offered vs completed + rejected", offered, completed+rejected)

	// --- report ---
	fmt.Printf("front open-loop report: %d completed of %d offered in %v (%.1f/s completed)\n\n",
		completed, offered, elapsed.Round(time.Millisecond), float64(completed)/elapsed.Seconds())
	rows, total := stats.report(elapsed, completed)

	// Per-tenant accounting for the weighted-fairness check: completed
	// sessions per unit weight must agree across tenants (within
	// -fairness) whenever the run actually backlogged them.
	trep := make([]tenantReport, len(cfg.tenants))
	fmt.Printf("%-10s %6s %9s %9s %9s %12s %14s\n",
		"tenant", "weight", "offered", "accepted", "completed", "compl(/s)", "compl/share")
	for i, ts := range cfg.tenants {
		t := tstats[i]
		trep[i] = tenantReport{
			Name: ts.name, Weight: ts.weight,
			Offered: t.offered, Accepted: t.accepted, Completed: t.completed,
			CompletedPS:  float64(t.completed) / elapsed.Seconds(),
			Rejected:     t.rejected,
			NormPerShare: float64(t.completed) / float64(ts.weight),
		}
		fmt.Printf("%-10s %6d %9d %9d %9d %12.1f %14.1f\n",
			ts.name, ts.weight, t.offered, t.accepted, t.completed,
			trep[i].CompletedPS, trep[i].NormPerShare)
	}
	led.fairTol, led.tenants = cfg.fairness, trep

	// On a self-hosted front without chaos, the server's reject counter
	// and the clients' tally see the same rejections. (Under chaos the
	// wire loses some and the resilient client retries others.)
	if reg := obs.Installed(); reg != nil && f != nil && !chaosOn {
		counted := map[string]int64{}
		for k, n := range reg.Snapshot().Vectors["front_rejected_total"] {
			counted[strings.TrimPrefix(k, "reason=")] = n
		}
		all := map[string]int64{}
		for r := range counted {
			all[r] = 0
		}
		for r := range rejectReasons {
			all[r] = 0
		}
		for _, r := range sortedKeys(all) {
			led.equal("registry front_rejected_total{reason="+r+"} vs reject_reasons", counted[r], rejectReasons[r])
		}
	}
	fmt.Printf("\nrejects:")
	if len(rejectReasons) == 0 {
		fmt.Printf(" none")
	}
	for _, r := range sortedKeys(rejectReasons) {
		fmt.Printf(" %s=%d", r, rejectReasons[r])
	}
	fmt.Println()
	if ps != nil {
		fmt.Printf("pool: %d completed (%d clean, %d deadlock, %d canceled), %d rejected (%d deadline-shed), %d dropped events\n",
			ps.Completed, ps.Clean, ps.Deadlocks, ps.Canceled, ps.Rejected, ps.RejectedDeadline, ps.EventsDropped)
		fmt.Printf("goroutines: %d before, %d leaked after Shutdown\n", goroutinesBefore, led.leaked)
	}
	if observation != nil {
		fmt.Printf("observe (last %v): exec n=%d p50=%.3fms p99=%.3fms | queue-wait p99=%.3fms\n",
			observation.Span, observation.Exec.Count, observation.Exec.P50Ms, observation.Exec.P99Ms,
			observation.QueueWait.P99Ms)
	}
	var fairnessOK *bool
	if cfg.fairness > 0 && len(trep) >= 2 {
		ok := len(led.unfair()) == 0
		fairnessOK = &ok
		if ok {
			fmt.Printf("fairness: completed/share within %.0f%% of mean across %d tenants\n", cfg.fairness*100, len(trep))
		}
	}

	// Spilled verdicts are reported, not failed on: a spill IS the
	// designed terminal disposition for a slow client.
	var crep *chaosReport
	if chaosOn {
		var retries int64
		for _, rc := range rclients {
			retries += rc.Retries()
			led.unmatched += rc.Stats().UnmatchedVerdicts
		}
		spilled, unaccepted := 0, 0
		if f != nil {
			log := f.Spilled()
			spilled = len(log)
			for _, sv := range log {
				if !sv.AcceptSent && sv.Verdict != serve.VerdictCanceled.String() {
					unaccepted++
				}
			}
		}
		crep = &chaosReport{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Rate:        cfg.chaosRate, Seed: cfg.chaosSeed,
			Duration: cfg.dur.String(), OpenRate: cfg.rate,
			ServerFaults: srvChaos.Counts(), ClientFaults: cliChaos.Counts(),
			Offered: offered, Completed: completed, Rejected: rejected,
			Retries:           retries,
			TerminalOutcomeOK: offered == completed+rejected,
			FalseVerdicts:     led.falseVerdicts,
			UnmatchedVerdicts: led.unmatched,
			SpilledVerdicts:   spilled,
			UnacceptedRuns:    unaccepted,
			LeakedGoroutines:  led.leaked,
		}
		fmt.Printf("\nchaos: rate=%.2f seed=%d server-faults=%d client-faults=%d retries=%d spilled=%d unaccepted-runs=%d\n",
			cfg.chaosRate, cfg.chaosSeed, srvChaos.Total(), cliChaos.Total(), retries, spilled, unaccepted)
	}

	if cfg.jsonOut == "" {
		return nil
	}
	rep := frontReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Rate:        cfg.rate, Shape: cfg.shape,
		Duration: cfg.dur.String(), Scale: cfg.scale, Mode: cfg.mode,
		Mix: cfg.mixSpec, Inject: cfg.inject, Deadline: cfg.deadlineSpec,
		SelfHosted: f != nil, Tenants: trep, Scenarios: rows, Total: total,
		RejectReasons: rejectReasons, Misclassified: led.misclassified,
		FairnessTol: cfg.fairness, FairnessOK: fairnessOK,
		Leaked: led.leaked, Pool: ps, Observe: observation,
	}
	if err := writeJSONSection(cfg.jsonOut, "front", rep); err != nil {
		return fmt.Errorf("writing %s: %w", cfg.jsonOut, err)
	}
	if crep != nil {
		if err := writeJSONSection(cfg.jsonOut, "chaos", crep); err != nil {
			return fmt.Errorf("writing %s: %w", cfg.jsonOut, err)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: report written to %s\n", cfg.jsonOut)
	return nil
}
