// Command loadgen drives the multi-session serving layer (internal/serve)
// with a mixed-scenario workload: it keeps N concurrent sessions in flight
// over one shared scheduler, each session running a randomly drawn
// benchmark from the internal/workloads registry, and reports per-scenario
// throughput and latency percentiles.
//
// Usage:
//
//	loadgen [-sessions N] [-queue N] [-drivers N] [-d duration] [-mix all|spec]
//	        [-scale small|default|paper] [-mode full|ownership|unverified]
//	        [-detector lockfree|globallock] [-inject frac] [-deadline spec]
//	        [-open rate [-front addr] [-tenants spec] [-shape s] [-fairness tol]
//	         [-chaos rate] [-chaos-seed N]]
//	        [-graph shape [-graph-nodes N] [-graph-fail p] [-graph-flaky p]
//	         [-graph-retries N] [-graph-drivers N] [-chaos rate]]
//	        [-seed N] [-json file] [-metrics addr] [-metrics-out file] [-v]
//
// -drivers sets the closed-loop submitter count; the default,
// sessions+queue, keeps both admission tiers full without rejections,
// while a larger value drives the ErrPoolSaturated path as well.
//
// -open RATE switches to open-loop driving through the TCP front-end
// (internal/front): Poisson arrivals at RATE/s, optionally shaped by
// -shape bursty|diurnal, submitted over real client connections — one
// per -tenants entry — to a front self-hosted on a loopback port (or
// an external frontd via -front). Open-loop is the honest overload
// mode: arrivals do not slow down with the server, so admission
// control (deadline sheds, saturation rejects) and the weighted-fair
// dequeue across tenants are actually exercised; see open.go for the
// failure conditions the mode enforces.
//
// -mix selects the scenario mix: "all" is every registry benchmark with
// equal weight; otherwise a comma-separated list of names, each optionally
// weighted ("QSort:3,Sieve:1"). -inject adds a known-deadlock scenario
// ("Deadlock", the paper's Listing 1) with the given probability, so soak
// runs exercise detection verdicts under load; its sessions must classify
// as deadlock and every workload session as clean — any other outcome is a
// detector false verdict and loadgen exits nonzero. It also exits nonzero
// on dropped trace events or leaked goroutines after Pool.Close, so the
// nightly soak job fails loudly.
//
// -chaos RATE (open-loop only) turns the run into a fault-injection
// harness: a seeded injector (internal/chaos) fires connection resets,
// read/write delays, partial writes, handshake drops and forced
// pool-saturation rejections at RATE on both sides of the wire, and the
// tenant clients submit through front.ResilientClient — retry with
// backoff, reconnect, breakers. The run then also enforces the chaos
// invariants: every offered submission ends in exactly ONE terminal
// outcome (a verdict or a typed error), no false verdicts (a canceled
// verdict with a connection-lost cause is legitimate under chaos), no
// unmatched (double-delivered) verdicts, and no leaked goroutines. The
// report gains a "chaos" JSON section with the injector counts.
//
// -graph SHAPE switches to session-graph mode (internal/graph): drivers
// repeatedly build and run DAGs of dependent sessions — "diamond",
// "wide" (fan-out/fan-in), "chain" (deep pipeline), "random" (seeded
// random DAGs with doomed and flaky nodes exercising per-node retry and
// cascade cancellation), "ppsim"/"ppg" (the graph workload families) or
// "mixed" — and audit every finished graph against its deterministic
// ground truth: no orphaned nodes, no double-runs (exactly one terminal
// outcome per node, retried nodes counting once), no false node states
// or outputs, no cascade misses, no leaked goroutines. -chaos RATE in
// graph mode injects forced admission-saturation rejections, which the
// orchestrator must absorb without consuming retry attempts. See
// graph.go for the exact invariants; any violation exits nonzero and
// the report is merged into the benchtable JSON under "graph".
//
// -deadline mixes per-session deadlines into the traffic: a
// comma-separated list of DUR[:weight] classes ("5ms:1,none:9" gives one
// session in ten a 5 ms deadline), drawn independently of the scenario.
// The deadline context is passed to Pool.Submit, so it covers both the
// admission-queue wait and the execution; a session that overruns it is
// cancelled mid-flight and must classify as canceled — for a
// deadline-carrying session both its scenario's expected verdict (it beat
// the deadline) and canceled count as correct, anything else is a false
// verdict. A class of "none" (or "0") means no deadline; omitting it
// gives EVERY session a deadline drawn from the listed classes.
//
// -metrics serves the process metrics registry over HTTP for the run's
// duration: /metrics (Prometheus text format), /metrics.json (the
// snapshot as JSON) and /debug/pprof. -metrics-out writes one final
// snapshot to a file at the end of the run. Either flag installs the
// process-wide registry (internal/obs) BEFORE the pool is built, which
// also turns on the runtime's spawn/scheduler/trace instrumentation and
// registers the pool's windowed latency recorders — so the scrape
// endpoint and Pool.Observe read the same buckets. The printed report
// and the -json output gain an "observe" section: the windowed
// p50/p99 next to the lifetime percentiles.
//
// -json writes the report as JSON. If the target file already exists and
// is a benchtable report (BENCH_table1.json), the report is merged in
// under a "serve" key, leaving every other section untouched — the serve
// row then travels with the Table-1 baseline across PRs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// scenario is one entry of the mix: a named program factory with a weight.
type scenario struct {
	name   string
	weight int
	prog   func() core.TaskFunc
	// wantVerdict is what every session of this scenario must classify as;
	// anything else is a false verdict.
	want serve.Verdict
}

// deadlockProg is the paper's Listing 1: root owns p and waits on q, the
// child owns q and waits on p. Under Full mode the detector reports the
// cycle the moment it closes and both waits abort, so the session
// terminates with a DeadlockError — the expected verdict.
func deadlockProg(root *core.Task) error {
	p := core.NewPromiseNamed[int](root, "p")
	q := core.NewPromiseNamed[int](root, "q")
	if _, e := root.AsyncNamed("t2", func(t2 *core.Task) error {
		if _, e := p.Get(t2); e != nil {
			return e
		}
		return q.Set(t2, 1)
	}, q); e != nil {
		return e
	}
	if _, e := q.Get(root); e != nil {
		return e
	}
	return p.Set(root, 1)
}

// parseMix builds the scenario set. spec is "all" or
// "Name[:weight],Name[:weight],...".
func parseMix(spec string, scale workloads.Scale) ([]scenario, error) {
	var out []scenario
	if spec == "all" {
		for _, e := range workloads.All() {
			out = append(out, scenario{name: e.Name, weight: 1, prog: e.Prog(scale), want: serve.VerdictClean})
		}
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			weight = w
		}
		if name == "Deadlock" {
			out = append(out, scenario{name: name, weight: weight,
				prog: func() core.TaskFunc { return deadlockProg }, want: serve.VerdictDeadlock})
			continue
		}
		e, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		out = append(out, scenario{name: e.Name, weight: weight, prog: e.Prog(scale), want: serve.VerdictClean})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	return out, nil
}

// deadlineClass is one entry of the -deadline mix: sessions drawing it
// run under a d deadline (0 = none).
type deadlineClass struct {
	d      time.Duration
	weight int
}

// parseDeadlines parses the -deadline spec: "DUR[:weight],..." with
// "none"/"0" as the no-deadline class. An empty spec means no deadline
// injection at all.
func parseDeadlines(spec string) ([]deadlineClass, error) {
	if spec == "" {
		return nil, nil
	}
	var out []deadlineClass
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		durStr, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			durStr = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			weight = w
		}
		var d time.Duration
		if durStr != "none" && durStr != "0" {
			var err error
			d, err = time.ParseDuration(durStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("bad deadline %q", durStr)
			}
		}
		out = append(out, deadlineClass{d: d, weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty deadline spec %q", spec)
	}
	return out, nil
}

// drawDeadline picks a class by weight; 0 means no deadline.
func drawDeadline(rng *rand.Rand, classes []deadlineClass, total int) time.Duration {
	if len(classes) == 0 {
		return 0
	}
	w := rng.Intn(total)
	for _, c := range classes {
		if w -= c.weight; w < 0 {
			return c.d
		}
	}
	return 0
}

// scenarioStat accumulates one scenario's results across the run.
type scenarioStat struct {
	hist      *harness.Histogram
	count     int64
	deadlined int64 // sessions submitted with an injected deadline
	canceled  int64 // sessions that classified as canceled
	bad       int64 // sessions whose verdict differed from the scenario's expectation
}

// scenarioReport is the per-scenario row of the JSON report.
type scenarioReport struct {
	Name          string  `json:"name"`
	Sessions      int64   `json:"sessions"`
	PerSec        float64 `json:"sessions_per_sec"`
	Deadlined     int64   `json:"deadlined"`
	Canceled      int64   `json:"canceled"`
	FalseVerdicts int64   `json:"false_verdicts"`
	harness.HistSummary
}

// serveReport is the "serve" section written to the JSON output.
type serveReport struct {
	GeneratedAt string           `json:"generated_at"`
	Sessions    int              `json:"sessions"`
	Queue       int              `json:"queue"`
	Duration    string           `json:"duration"`
	Scale       string           `json:"scale"`
	Mode        string           `json:"mode"`
	Detector    string           `json:"detector"`
	Mix         string           `json:"mix"`
	Inject      float64          `json:"inject"`
	Deadline    string           `json:"deadline,omitempty"`
	Scenarios   []scenarioReport `json:"scenarios"`
	Total       scenarioReport   `json:"total"`
	Pool        serve.PoolStats  `json:"pool"`
	// Observe is the pool's windowed latency digest (roughly the last 30s
	// of completed sessions), taken right after the drivers stop — the
	// live-quantile view next to the lifetime percentiles above.
	Observe serve.Observation `json:"observe"`
}

// writeJSONSection writes rep to path under the given key; when path
// holds an existing JSON object (e.g. BENCH_table1.json) the report is
// merged in as that member — the serve/front rows then travel with the
// Table-1 baseline across PRs.
func writeJSONSection(path, key string, rep any) error {
	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(prev, &doc) != nil {
			doc = map[string]json.RawMessage{} // not an object: overwrite
		}
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	doc[key] = raw
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	sessions := flag.Int("sessions", 16, "max concurrently running sessions")
	queue := flag.Int("queue", 0, "admission queue depth behind the running sessions")
	drivers := flag.Int("drivers", 0, "closed-loop submitters (0 = sessions+queue: saturates both tiers; > that exercises rejection)")
	dur := flag.Duration("d", 10*time.Second, "how long to keep submitting")
	mix := flag.String("mix", "all", `scenario mix: "all" or "Name[:weight],..." (name "Deadlock" injects Listing 1)`)
	scaleFlag := flag.String("scale", "small", "workload scale: small, default, paper")
	modeFlag := flag.String("mode", "full", "verification mode: unverified, ownership, full")
	detector := flag.String("detector", "lockfree", "detector in full mode: lockfree, globallock")
	inject := flag.Float64("inject", 0, "probability in [0,1) of swapping a draw for the Deadlock scenario")
	deadlineSpec := flag.String("deadline", "", `per-session deadline mix: "DUR[:weight],..." ("5ms:1,none:9"; "none"/"0" = no deadline)`)
	graphShape := flag.String("graph", "", `graph mode: drive DAGs of dependent sessions ("diamond", "wide", "chain", "random", "ppsim", "ppg" or "mixed"; empty = off)`)
	graphNodes := flag.Int("graph-nodes", 64, "graph mode: node count of the wide/chain/random shapes")
	graphFail := flag.Float64("graph-fail", 0.1, "graph mode: random-DAG doom probability (a doomed node fails every attempt and cascades)")
	graphFlaky := flag.Float64("graph-flaky", 0.15, "graph mode: random-DAG flaky probability (fails all but its last permitted attempt)")
	graphRetries := flag.Int("graph-retries", 3, "graph mode: per-node retry budget (total attempts) on random DAGs")
	graphDrivers := flag.Int("graph-drivers", 2, "graph mode: concurrent graph drivers")
	open := flag.Float64("open", 0, "open-loop mode: aggregate arrival rate per second through a TCP front (0 = closed-loop)")
	frontAddr := flag.String("front", "", "open-loop: external frontd address (empty = self-host on 127.0.0.1:0)")
	tenantsSpec := flag.String("tenants", "default:1", `open-loop: tenant set with weighted-fair shares ("gold:3,bronze:1"); key "<tenant>-key" authenticates each`)
	shape := flag.String("shape", "steady", "open-loop arrival shape: steady, bursty (square wave), diurnal (sinusoid)")
	shapePeriod := flag.Duration("shape-period", 2*time.Second, "period of the bursty/diurnal arrival shapes")
	fairness := flag.Float64("fairness", 0, "open-loop: fail unless per-tenant completed/share stays within this fraction of the mean (0 = no check)")
	admission := flag.Bool("admission", true, "open-loop: deadline-aware admission on the self-hosted front")
	chaosRate := flag.Float64("chaos", 0, "open-loop: injected fault rate in [0,1) (conn resets, r/w delays, partial writes, handshake drops, forced saturation); clients submit through the retrying resilient client")
	chaosSeed := flag.Int64("chaos-seed", 7, "chaos injector RNG seed (reproducible fault schedules)")
	seed := flag.Int64("seed", 1, "mix-draw RNG seed")
	jsonOut := flag.String("json", "", `write/merge the report as JSON ("serve" section of a benchtable file)`)
	metricsAddr := flag.String("metrics", "", `serve /metrics (Prometheus text), /metrics.json and /debug/pprof on this address during the run (e.g. "127.0.0.1:9100")`)
	metricsOut := flag.String("metrics-out", "", "write the final metrics registry snapshot to this file as JSON")
	verbose := flag.Bool("v", false, "log each rejected submission and scenario totals as they close")
	flag.Parse()

	scale := workloads.ParseScale(*scaleFlag)
	scenarios, err := parseMix(*mix, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	deadlines, err := parseDeadlines(*deadlineSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	deadlineWeight := 0
	for _, c := range deadlines {
		deadlineWeight += c.weight
	}
	var opts []core.Option
	switch *modeFlag {
	case "full":
		opts = append(opts, core.WithMode(core.Full))
	case "ownership":
		opts = append(opts, core.WithMode(core.Ownership))
	case "unverified":
		opts = append(opts, core.WithMode(core.Unverified))
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	switch *detector {
	case "lockfree":
		// Explicit even though it is core's default: the DEADLOCK_DETECTOR
		// env redirects option-less runtimes, and the report must label the
		// detector that actually ran.
		opts = append(opts, core.WithDetector(core.DetectLockFree))
	case "globallock":
		opts = append(opts, core.WithDetector(core.DetectGlobalLock))
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown detector %q\n", *detector)
		os.Exit(2)
	}
	if *chaosRate > 0 && *open <= 0 && *graphShape == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -chaos requires -open (network-edge faults) or -graph (admission faults)")
		os.Exit(2)
	}
	if *graphShape != "" && *open > 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -graph and -open are mutually exclusive modes")
		os.Exit(2)
	}
	if *modeFlag != "full" && (*inject > 0 || *mix != "all") {
		for _, sc := range scenarios {
			if sc.want == serve.VerdictDeadlock {
				fmt.Fprintln(os.Stderr, "loadgen: the Deadlock scenario requires -mode full (weaker modes hang on it)")
				os.Exit(2)
			}
		}
		if *inject > 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -inject requires -mode full (weaker modes hang on it)")
			os.Exit(2)
		}
	}

	injected := scenario{name: "Deadlock", weight: 0,
		prog: func() core.TaskFunc { return deadlockProg }, want: serve.VerdictDeadlock}
	totalWeight := 0
	for _, sc := range scenarios {
		totalWeight += sc.weight
	}

	stats := map[string]*scenarioStat{}
	for _, sc := range scenarios {
		stats[sc.name] = &scenarioStat{hist: harness.NewHistogram()}
	}
	if *inject > 0 {
		stats[injected.name] = &scenarioStat{hist: harness.NewHistogram()}
	}
	var statsMu sync.Mutex
	total := harness.NewHistogram()

	// Install the registry BEFORE NewPool so the pool's latency windows
	// register under their serve_* names and the scrape endpoint reads
	// the same buckets Pool.Observe does.
	var reg *obs.Registry
	if *metricsAddr != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
		obs.Install(reg)
	}
	var metricsSrv *obs.Server
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: metrics server: %v\n", err)
			os.Exit(1)
		}
		metricsSrv = srv
		fmt.Fprintf(os.Stderr, "loadgen: metrics on http://%s/metrics (also /metrics.json, /debug/pprof)\n", srv.Addr())
	}

	if *graphShape != "" {
		code := runGraphMode(graphConfig{
			shape: *graphShape, nodes: *graphNodes,
			failProb: *graphFail, flakyProb: *graphFlaky, retries: *graphRetries,
			drivers: *graphDrivers, sessions: *sessions, queue: *queue, dur: *dur,
			scale: scale, scaleStr: *scaleFlag, mode: *modeFlag,
			chaosRate: *chaosRate, chaosSeed: *chaosSeed,
			seed: *seed, jsonOut: *jsonOut, verbose: *verbose,
			runtime: opts,
		})
		if *metricsOut != "" {
			buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err == nil {
				err = os.WriteFile(*metricsOut, append(buf, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *metricsOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "loadgen: metrics snapshot written to %s\n", *metricsOut)
		}
		if metricsSrv != nil {
			metricsSrv.Close()
		}
		os.Exit(code)
	}

	if *open > 0 {
		tenants, err := parseTenants(*tenantsSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		code := runOpen(openConfig{
			rate: *open, shape: *shape, shapePeriod: *shapePeriod,
			frontAddr: *frontAddr, tenants: tenants,
			sessions: *sessions, queue: *queue, dur: *dur,
			scale: *scaleFlag, mode: *modeFlag, mix: *mix, inject: *inject,
			deadlineStr: *deadlineSpec, admission: *admission,
			chaosRate: *chaosRate, chaosSeed: *chaosSeed,
			seed: *seed, jsonOut: *jsonOut, verbose: *verbose,
		}, scenarios, injected, totalWeight, deadlines, deadlineWeight, opts, *fairness)
		if *metricsOut != "" {
			buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err == nil {
				err = os.WriteFile(*metricsOut, append(buf, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *metricsOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "loadgen: metrics snapshot written to %s\n", *metricsOut)
		}
		if metricsSrv != nil {
			metricsSrv.Close()
		}
		os.Exit(code)
	}

	goroutinesBefore := runtime.NumGoroutine()
	pool := serve.NewPool(serve.Config{
		MaxSessions: *sessions,
		QueueDepth:  *queue,
		Runtime:     opts,
	})

	// Closed-loop drivers, each repeatedly drawing a scenario, running it
	// to completion, and recording the latency. The default driver count
	// keeps the running tier and the admission queue both full without
	// tripping rejection; -drivers beyond sessions+queue exercises the
	// ErrPoolSaturated path too (rejections are reported in the pool line).
	nDrivers := *drivers
	if nDrivers <= 0 {
		nDrivers = *sessions + *queue
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d sessions, queue %d, %d drivers, mix %q, %v, scale=%s mode=%s detector=%s inject=%g deadline=%q\n",
		*sessions, *queue, nDrivers, *mix, *dur, *scaleFlag, *modeFlag, *detector, *inject, *deadlineSpec)
	deadline := time.Now().Add(*dur)
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < nDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(d)))
			for time.Now().Before(deadline) {
				sc := scenarios[0]
				if *inject > 0 && rng.Float64() < *inject {
					sc = injected
				} else {
					w := rng.Intn(totalWeight)
					for _, cand := range scenarios {
						if w -= cand.weight; w < 0 {
							sc = cand
							break
						}
					}
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				dl := drawDeadline(rng, deadlines, deadlineWeight)
				if dl > 0 {
					ctx, cancel = context.WithTimeout(ctx, dl)
				}
				sess, err := pool.Submit(ctx, sc.name, sc.prog())
				if err != nil {
					if cancel != nil {
						cancel()
					}
					if *verbose {
						fmt.Fprintf(os.Stderr, "loadgen: submit %s: %v\n", sc.name, err)
					}
					time.Sleep(time.Millisecond)
					continue
				}
				sess.Wait()
				if cancel != nil {
					cancel()
				}
				got := sess.Verdict()
				// A deadline-carrying session legitimately ends either way:
				// it beat the deadline (its scenario's expected verdict) or
				// the deadline won (canceled). Everything else — and any
				// canceled verdict WITHOUT an injected deadline — is false.
				okVerdict := got == sc.want || (dl > 0 && got == serve.VerdictCanceled)
				statsMu.Lock()
				st := stats[sc.name]
				st.count++
				if dl > 0 {
					st.deadlined++
				}
				if got == serve.VerdictCanceled {
					st.canceled++
				}
				if !okVerdict {
					st.bad++
					fmt.Fprintf(os.Stderr, "loadgen: FALSE VERDICT %s: got %s want %s: %v\n",
						sc.name, got, sc.want, sess.Err())
				}
				statsMu.Unlock()
				// Sessions aborted in the admission queue never built a
				// runtime: their zero Duration is not a latency sample and
				// would drag the percentiles (and the committed serve
				// baseline) down artificially.
				if sess.Runtime() != nil {
					st.hist.Observe(sess.Duration())
					total.Observe(sess.Duration())
				}
			}
		}(d)
	}
	wg.Wait()
	// Digest the windowed recorders before Close's drain eats into the
	// window: this is the live view an operator polling Pool.Observe (or
	// scraping /metrics) saw at end of run.
	observation := pool.Observe()
	pool.Close()
	elapsed := time.Since(start)

	// Drain check: after Close every pool goroutine (scheduler workers,
	// cleaner) must be gone. Allow the runtime a moment to reap.
	leaked := -1
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); time.Sleep(10 * time.Millisecond) {
		if g := runtime.NumGoroutine(); g <= goroutinesBefore {
			leaked = 0
			break
		}
	}
	if leaked != 0 {
		leaked = runtime.NumGoroutine() - goroutinesBefore
	}

	ps := pool.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)

	var rows []scenarioReport
	var falseVerdicts int64
	fmt.Printf("serve load report: %d sessions completed in %v (%.1f/s aggregate)\n\n",
		ps.Completed, elapsed.Round(time.Millisecond), float64(ps.Completed)/elapsed.Seconds())
	var deadlined, canceledTotal int64
	fmt.Printf("%-16s %9s %9s %9s %9s %9s %9s %8s %6s\n",
		"scenario", "sessions", "thr(/s)", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "cancel", "false")
	for _, name := range names {
		st := stats[name]
		sum := st.hist.Summary()
		row := scenarioReport{
			Name:          name,
			Sessions:      st.count,
			PerSec:        float64(st.count) / elapsed.Seconds(),
			Deadlined:     st.deadlined,
			Canceled:      st.canceled,
			FalseVerdicts: st.bad,
			HistSummary:   sum,
		}
		rows = append(rows, row)
		falseVerdicts += st.bad
		deadlined += st.deadlined
		canceledTotal += st.canceled
		fmt.Printf("%-16s %9d %9.1f %9.3f %9.3f %9.3f %9.3f %8d %6d\n",
			name, row.Sessions, row.PerSec, sum.P50Ms, sum.P90Ms, sum.P99Ms, sum.MaxMs, st.canceled, st.bad)
	}
	totalSum := total.Summary()
	totalRow := scenarioReport{
		Name: "total", Sessions: ps.Completed,
		PerSec:    float64(ps.Completed) / elapsed.Seconds(),
		Deadlined: deadlined, Canceled: canceledTotal, FalseVerdicts: falseVerdicts,
		HistSummary: totalSum,
	}
	fmt.Printf("%-16s %9d %9.1f %9.3f %9.3f %9.3f %9.3f %8d %6d\n\n",
		"total", totalRow.Sessions, totalRow.PerSec, totalSum.P50Ms, totalSum.P90Ms, totalSum.P99Ms, totalSum.MaxMs, canceledTotal, falseVerdicts)
	fmt.Printf("pool: peak %d in-flight, %d rejected, %d canceled (%d deadline-injected), %d tasks, workers %d spawned / %d reused / %d thieves, %d steals, %d wakes, %d dropped events\n",
		ps.Peak, ps.Rejected, ps.Canceled, deadlined, ps.TasksRun, ps.WorkersSpawned, ps.WorkersReused, ps.WorkerThieves, ps.Steals, ps.Wakes, ps.EventsDropped)
	fmt.Printf("goroutines: %d before, %d leaked after Close\n", goroutinesBefore, leaked)
	// The windowed digest next to the lifetime percentiles: over a run
	// shorter than the window span the two p99s must roughly agree (the
	// obs acceptance bound is 2x); over a longer run the window only
	// holds the most recent traffic, which is exactly its point.
	fmt.Printf("observe (last %v): exec n=%d p50=%.3fms p99=%.3fms | queue-wait p99=%.3fms (lifetime exec p99=%.3fms)\n",
		observation.Span, observation.Exec.Count, observation.Exec.P50Ms, observation.Exec.P99Ms,
		observation.QueueWait.P99Ms, totalSum.P99Ms)

	if *jsonOut != "" {
		rep := serveReport{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Sessions:    *sessions,
			Queue:       *queue,
			Duration:    dur.String(),
			Scale:       *scaleFlag,
			Mode:        *modeFlag,
			Detector:    *detector,
			Mix:         *mix,
			Inject:      *inject,
			Deadline:    *deadlineSpec,
			Scenarios:   rows,
			Total:       totalRow,
			Pool:        ps,
			Observe:     observation,
		}
		if err := writeJSONSection(*jsonOut, "serve", rep); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loadgen: report written to %s\n", *jsonOut)
	}

	if *metricsOut != "" {
		buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(*metricsOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loadgen: metrics snapshot written to %s\n", *metricsOut)
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}

	bad := false
	if falseVerdicts > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d false verdicts\n", falseVerdicts)
		bad = true
	}
	if ps.EventsDropped > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d dropped trace events\n", ps.EventsDropped)
		bad = true
	}
	if leaked != 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d goroutines leaked after Pool.Close\n", leaked)
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}
