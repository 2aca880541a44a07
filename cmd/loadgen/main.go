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
// dequeue across tenants are actually exercised.
//
// -mix selects the scenario mix: "all" is every registry benchmark with
// equal weight; otherwise a comma-separated list of names, each optionally
// weighted ("QSort:3,Sieve:1"). -inject adds a known-deadlock scenario
// ("Deadlock", the paper's Listing 1) with the given probability, so soak
// runs exercise detection verdicts under load.
//
// -chaos RATE (open-loop) turns the run into a fault-injection harness:
// a seeded injector (internal/chaos) fires connection resets, read/write
// delays, partial writes, handshake drops and forced pool-saturation
// rejections at RATE on both sides of the wire, and the tenant clients
// submit through front.ResilientClient — classified retries with
// full-jitter backoff, reconnect to the one front. The report gains a
// "chaos" JSON section with the injector counts.
//
// -graph SHAPE switches to session-graph mode (internal/graph): drivers
// repeatedly build and run DAGs of dependent sessions — "diamond",
// "wide" (fan-out/fan-in), "chain" (deep pipeline), "random" (seeded
// random DAGs with doomed and flaky nodes exercising per-node retry and
// cascade cancellation), "ppsim"/"ppg" (the graph workload families) or
// "mixed" — and audit every finished graph against its deterministic
// ground truth. -chaos RATE in graph mode injects forced
// admission-saturation rejections, which the orchestrator must absorb
// without consuming retry attempts. The report is merged into the
// benchtable JSON under "graph".
//
// -deadline mixes per-session deadlines into the traffic: a
// comma-separated list of DUR[:weight] classes ("5ms:1,none:9" gives one
// session in ten a 5 ms deadline), drawn independently of the scenario.
// The deadline context covers both the admission-queue wait and the
// execution; a session that overruns it is cancelled mid-flight. A class
// of "none" (or "0") means no deadline; omitting it gives EVERY session a
// deadline drawn from the listed classes.
//
// Every mode adds its counts to one ledger (ledger.go), and the ledger
// alone decides the outcome: loadgen prints each violation and exits 1
// if there is any. A run fails on:
//
//   - a false verdict: a session classifying as anything but its
//     scenario's expectation (deadlock for Deadlock, clean for a
//     workload). Canceled is allowed only for a session that carried a
//     deadline, or under -chaos for one whose connection died after
//     accept (an ErrPoolClosed cause);
//   - an admission misclassification: a "deadline" rejection of a
//     request that carried no deadline;
//   - an unmatched verdict frame under -chaos (a double delivery);
//   - in an open-loop run, offered != completed + rejected: every
//     offered submission ends in exactly one terminal outcome;
//   - a tenant whose completed/share deviates from the mean across
//     tenants by more than -fairness;
//   - in graph mode: no graph completed, an orphaned node (not in
//     exactly one terminal state), a double-run (body executions !=
//     attempts, or any for a cascade-canceled node), a false node state
//     or output, or a cascade miss (a descendant of a failed node that
//     was not canceled);
//   - under graph -chaos, chaos injections != admission retries;
//   - with a metrics registry installed, a registry counter that
//     disagrees with the report's own tally: graph_retries_total and
//     graph_admission_retries_total in graph mode, and each
//     front_rejected_total{reason} on a self-hosted front without chaos;
//   - a dropped trace event;
//   - goroutines left over once the pool or self-hosted front has shut
//     down.
//
// A bad flag value, -scale included, exits 2.
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
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// config is the parsed command line, shared by the three modes.
type config struct {
	sessions, queue, drivers int
	dur                      time.Duration
	mixSpec, scale, mode     string
	detector, deadlineSpec   string
	inject                   float64
	runtime                  []core.Option
	mix                      *mix
	chaosRate                float64 // open-loop or graph fault rate; 0 = chaos off
	chaosSeed, seed          int64
	jsonOut                  string
	metricsAddr, metricsOut  string
	verbose                  bool

	// Open loop.
	rate        float64
	frontAddr   string // external front; empty self-hosts
	tenants     []weighted
	shape       string
	shapePeriod time.Duration
	fairness    float64
	admission   bool

	// Graph mode.
	graphShape                   string
	nodes, retries, graphDrivers int
	failProb, flakyProb          float64
}

// scenario is one entry of the mix: a named session body with a weight.
type scenario struct {
	name   string
	weight int
	prog   core.TaskFunc
	// want is what every session of this scenario must classify as;
	// anything else is a false verdict.
	want serve.Verdict
}

// injected is the Deadlock scenario: -mix can name it and -inject swaps
// it in for a draw.
var injected = scenario{name: "Deadlock", weight: 1,
	prog: randprog.Listing1, want: serve.VerdictDeadlock}

// weighted is one "name[:weight]" entry of a -mix, -deadline or -tenants
// list.
type weighted struct {
	name   string
	weight int
}

// parseWeighted parses a comma-separated "name[:weight]" list; an
// omitted weight is 1.
func parseWeighted(spec string) ([]weighted, error) {
	var out []weighted
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w := weighted{name: part, weight: 1}
		if i := strings.IndexByte(part, ':'); i >= 0 {
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			w = weighted{name: part[:i], weight: n}
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", spec)
	}
	return out, nil
}

// parseMix builds the scenario set. spec is "all" or a weighted list of
// registry names and "Deadlock".
func parseMix(spec string, scale workloads.Scale) ([]scenario, error) {
	var out []scenario
	if spec == "all" {
		for _, e := range workloads.All() {
			out = append(out, scenario{name: e.Name, weight: 1, prog: e.Session(scale), want: serve.VerdictClean})
		}
		return out, nil
	}
	list, err := parseWeighted(spec)
	if err != nil {
		return nil, err
	}
	for _, w := range list {
		sc := injected
		if w.name != injected.name {
			e, ok := workloads.ByName(w.name)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q", w.name)
			}
			sc = scenario{name: e.Name, prog: e.Session(scale), want: serve.VerdictClean}
		}
		sc.weight = w.weight
		out = append(out, sc)
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
	list, err := parseWeighted(spec)
	if err != nil {
		return nil, err
	}
	out := make([]deadlineClass, len(list))
	for i, w := range list {
		out[i].weight = w.weight
		if w.name != "none" && w.name != "0" {
			d, err := time.ParseDuration(w.name)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("bad deadline %q", w.name)
			}
			out[i].d = d
		}
	}
	return out, nil
}

// mix draws each submission's scenario and deadline.
type mix struct {
	scenarios []scenario
	inject    float64 // probability of swapping a draw for the Deadlock scenario
	deadlines []deadlineClass
}

// draw picks a scenario by weight (or the injected Deadlock) and then a
// deadline class by weight; 0 means no deadline.
func (m *mix) draw(rng *rand.Rand) (scenario, time.Duration) {
	sc := injected
	if m.inject <= 0 || rng.Float64() >= m.inject {
		sc = m.scenarios[pick(rng, len(m.scenarios), func(i int) int { return m.scenarios[i].weight })]
	}
	if len(m.deadlines) == 0 {
		return sc, 0
	}
	return sc, m.deadlines[pick(rng, len(m.deadlines), func(i int) int { return m.deadlines[i].weight })].d
}

// pick draws an index in [0,n) with probability proportional to weight.
func pick(rng *rand.Rand, n int, weight func(int) int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	w := rng.Intn(total)
	for i := 0; i < n-1; i++ {
		if w -= weight(i); w < 0 {
			return i
		}
	}
	return n - 1
}

// scenarioStat accumulates one scenario's results across the run.
type scenarioStat struct {
	hist      *hist.Histogram
	count     int64
	deadlined int64 // sessions submitted with an injected deadline
	canceled  int64 // sessions that classified as canceled
	bad       int64 // sessions whose verdict differed from the scenario's expectation
}

// sessionStats is the per-scenario tally of the closed and open loops.
type sessionStats struct {
	mu    sync.Mutex
	by    map[string]*scenarioStat
	total *hist.Histogram
	chaos bool // a connection lost after accept is a legitimate cancel
	led   *ledger
}

func newSessionStats(m *mix, chaos bool, led *ledger) *sessionStats {
	s := &sessionStats{by: map[string]*scenarioStat{}, total: hist.NewHistogram(), chaos: chaos, led: led}
	for _, sc := range m.scenarios {
		s.by[sc.name] = &scenarioStat{hist: hist.NewHistogram()}
	}
	if m.inject > 0 {
		s.by[injected.name] = &scenarioStat{hist: hist.NewHistogram()}
	}
	return s
}

// finished is what record reads from a local or remote session.
type finished interface {
	Verdict() serve.Verdict
	Err() error
	Duration() time.Duration
}

// record books one finished session drawn as sc with deadline dl;
// sample says whether its duration is a latency sample. A
// deadline-carrying session legitimately ends either way: it beat the
// deadline (its scenario's verdict) or the deadline won (canceled).
// Under chaos a connection can die after accept and the server cancels
// the orphaned session with an ErrPoolClosed cause, also a terminal
// outcome. Anything else is a false verdict.
func (s *sessionStats) record(sc scenario, dl time.Duration, sess finished, sample bool) {
	got := sess.Verdict()
	ok := got == sc.want || (got == serve.VerdictCanceled &&
		(dl > 0 || s.chaos && errors.Is(sess.Err(), serve.ErrPoolClosed)))
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.by[sc.name]
	st.count++
	if dl > 0 {
		st.deadlined++
	}
	if got == serve.VerdictCanceled {
		st.canceled++
	}
	if !ok {
		st.bad++
		s.led.charge(&s.led.falseVerdicts, "FALSE VERDICT %s: got %s want %s: %v", sc.name, got, sc.want, sess.Err())
	}
	if sample {
		st.hist.Observe(sess.Duration())
		s.total.Observe(sess.Duration())
	}
}

// scenarioReport is the per-scenario row of the JSON report.
type scenarioReport struct {
	Name          string  `json:"name"`
	Sessions      int64   `json:"sessions"`
	PerSec        float64 `json:"sessions_per_sec"`
	Deadlined     int64   `json:"deadlined"`
	Canceled      int64   `json:"canceled"`
	FalseVerdicts int64   `json:"false_verdicts"`
	hist.HistSummary
}

// report prints the per-scenario table and returns its rows and the
// total row, whose session count is sessions.
func (s *sessionStats) report(elapsed time.Duration, sessions int64) ([]scenarioReport, scenarioReport) {
	line := func(r scenarioReport) {
		fmt.Printf("%-16s %9d %9.1f %9.3f %9.3f %9.3f %9.3f %8d %6d\n",
			r.Name, r.Sessions, r.PerSec, r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs, r.Canceled, r.FalseVerdicts)
	}
	fmt.Printf("%-16s %9s %9s %9s %9s %9s %9s %8s %6s\n",
		"scenario", "sessions", "thr(/s)", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "cancel", "false")
	var rows []scenarioReport
	total := scenarioReport{Name: "total", Sessions: sessions, PerSec: float64(sessions) / elapsed.Seconds(),
		HistSummary: s.total.Summary()}
	for _, name := range sortedKeys(s.by) {
		st := s.by[name]
		row := scenarioReport{
			Name: name, Sessions: st.count,
			PerSec:    float64(st.count) / elapsed.Seconds(),
			Deadlined: st.deadlined, Canceled: st.canceled, FalseVerdicts: st.bad,
			HistSummary: st.hist.Summary(),
		}
		rows = append(rows, row)
		line(row)
		total.Deadlined += st.deadlined
		total.Canceled += st.canceled
		total.FalseVerdicts += st.bad
	}
	line(total)
	fmt.Println()
	return rows, total
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
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// parseConfig parses and checks the command line; a returned error is a
// usage error.
func parseConfig(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	fs.IntVar(&cfg.sessions, "sessions", 16, "max concurrently running sessions")
	fs.IntVar(&cfg.queue, "queue", 0, "admission queue depth behind the running sessions")
	fs.IntVar(&cfg.drivers, "drivers", 0, "closed-loop submitters (0 = sessions+queue: saturates both tiers; > that exercises rejection)")
	fs.DurationVar(&cfg.dur, "d", 10*time.Second, "how long to keep submitting")
	fs.StringVar(&cfg.mixSpec, "mix", "all", `scenario mix: "all" or "Name[:weight],..." (name "Deadlock" injects Listing 1)`)
	fs.StringVar(&cfg.scale, "scale", "small", "workload scale: small, default, paper")
	fs.StringVar(&cfg.mode, "mode", "full", "verification mode: unverified, ownership, full")
	fs.StringVar(&cfg.detector, "detector", "lockfree", "detector in full mode: lockfree, globallock")
	fs.Float64Var(&cfg.inject, "inject", 0, "probability in [0,1) of swapping a draw for the Deadlock scenario")
	fs.StringVar(&cfg.deadlineSpec, "deadline", "", `per-session deadline mix: "DUR[:weight],..." ("5ms:1,none:9"; "none"/"0" = no deadline)`)
	fs.StringVar(&cfg.graphShape, "graph", "", `graph mode: drive DAGs of dependent sessions ("diamond", "wide", "chain", "random", "ppsim", "ppg" or "mixed"; empty = off)`)
	fs.IntVar(&cfg.nodes, "graph-nodes", 64, "graph mode: node count of the wide/chain/random shapes")
	fs.Float64Var(&cfg.failProb, "graph-fail", 0.1, "graph mode: random-DAG doom probability (a doomed node fails every attempt and cascades)")
	fs.Float64Var(&cfg.flakyProb, "graph-flaky", 0.15, "graph mode: random-DAG flaky probability (fails all but its last permitted attempt)")
	fs.IntVar(&cfg.retries, "graph-retries", 3, "graph mode: per-node retry budget (total attempts) on random DAGs")
	fs.IntVar(&cfg.graphDrivers, "graph-drivers", 2, "graph mode: concurrent graph drivers")
	fs.Float64Var(&cfg.rate, "open", 0, "open-loop mode: aggregate arrival rate per second through a TCP front (0 = closed-loop)")
	fs.StringVar(&cfg.frontAddr, "front", "", "open-loop: external frontd address (empty = self-host on 127.0.0.1:0)")
	tenantsSpec := fs.String("tenants", "default:1", `open-loop: tenant set with weighted-fair shares ("gold:3,bronze:1"); key "<tenant>-key" authenticates each`)
	fs.StringVar(&cfg.shape, "shape", "steady", "open-loop arrival shape: steady, bursty (square wave), diurnal (sinusoid)")
	fs.DurationVar(&cfg.shapePeriod, "shape-period", 2*time.Second, "period of the bursty/diurnal arrival shapes")
	fs.Float64Var(&cfg.fairness, "fairness", 0, "open-loop: fail unless per-tenant completed/share stays within this fraction of the mean (0 = no check)")
	fs.BoolVar(&cfg.admission, "admission", true, "open-loop: deadline-aware admission on the self-hosted front")
	fs.Float64Var(&cfg.chaosRate, "chaos", 0, "open-loop: injected fault rate in [0,1) (conn resets, r/w delays, partial writes, handshake drops, forced saturation); clients submit through the retrying resilient client")
	fs.Int64Var(&cfg.chaosSeed, "chaos-seed", 7, "chaos injector RNG seed (reproducible fault schedules)")
	fs.Int64Var(&cfg.seed, "seed", 1, "mix-draw RNG seed")
	fs.StringVar(&cfg.jsonOut, "json", "", `write/merge the report as JSON ("serve" section of a benchtable file)`)
	fs.StringVar(&cfg.metricsAddr, "metrics", "", `serve /metrics (Prometheus text), /metrics.json and /debug/pprof on this address during the run (e.g. "127.0.0.1:9100")`)
	fs.StringVar(&cfg.metricsOut, "metrics-out", "", "write the final metrics registry snapshot to this file as JSON")
	fs.BoolVar(&cfg.verbose, "v", false, "log each rejected submission and scenario totals as they close")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}

	switch cfg.scale {
	case "small", "default", "paper":
	default:
		return cfg, fmt.Errorf("unknown scale %q (want small, default or paper)", cfg.scale)
	}
	scenarios, err := parseMix(cfg.mixSpec, workloads.ParseScale(cfg.scale))
	if err != nil {
		return cfg, err
	}
	deadlines, err := parseDeadlines(cfg.deadlineSpec)
	if err != nil {
		return cfg, err
	}
	cfg.mix = &mix{scenarios: scenarios, inject: cfg.inject, deadlines: deadlines}
	switch cfg.mode {
	case "full":
		cfg.runtime = append(cfg.runtime, core.WithMode(core.Full))
	case "ownership":
		cfg.runtime = append(cfg.runtime, core.WithMode(core.Ownership))
	case "unverified":
		cfg.runtime = append(cfg.runtime, core.WithMode(core.Unverified))
	default:
		return cfg, fmt.Errorf("unknown mode %q", cfg.mode)
	}
	switch cfg.detector {
	case "lockfree":
		// Explicit even though it is core's default: the DEADLOCK_DETECTOR
		// env redirects option-less runtimes, and the report must label the
		// detector that actually ran.
		cfg.runtime = append(cfg.runtime, core.WithDetector(core.DetectLockFree))
	case "globallock":
		cfg.runtime = append(cfg.runtime, core.WithDetector(core.DetectGlobalLock))
	default:
		return cfg, fmt.Errorf("unknown detector %q", cfg.detector)
	}
	if cfg.chaosRate > 0 && cfg.rate <= 0 && cfg.graphShape == "" {
		return cfg, errors.New("-chaos requires -open (network-edge faults) or -graph (admission faults)")
	}
	if cfg.graphShape != "" && cfg.rate > 0 {
		return cfg, errors.New("-graph and -open are mutually exclusive modes")
	}
	if cfg.mode != "full" {
		for _, sc := range scenarios {
			if sc.want == serve.VerdictDeadlock {
				return cfg, errors.New("the Deadlock scenario requires -mode full (weaker modes hang on it)")
			}
		}
		if cfg.inject > 0 {
			return cfg, errors.New("-inject requires -mode full (weaker modes hang on it)")
		}
	}
	if cfg.graphShape != "" {
		if cfg.graphShape != "mixed" && !slices.Contains(graphShapes, cfg.graphShape) {
			return cfg, fmt.Errorf("unknown -graph shape %q (want one of %v or mixed)", cfg.graphShape, graphShapes)
		}
		if (cfg.graphShape == "random" || cfg.graphShape == "mixed") && cfg.retries < 1 {
			return cfg, errors.New("-graph-retries must be >= 1")
		}
	}
	if cfg.rate > 0 {
		if cfg.tenants, err = parseTenants(*tenantsSpec); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	// Install the registry BEFORE the pool is built so the pool's latency
	// windows register under their serve_* names and the scrape endpoint
	// reads the same buckets Pool.Observe does.
	var reg *obs.Registry
	if cfg.metricsAddr != "" || cfg.metricsOut != "" {
		reg = obs.NewRegistry()
		obs.Install(reg)
	}
	var metricsSrv *obs.Server
	if cfg.metricsAddr != "" {
		if metricsSrv, err = obs.Serve(cfg.metricsAddr, reg); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loadgen: metrics on http://%s/metrics (also /metrics.json, /debug/pprof)\n", metricsSrv.Addr())
	}

	led := &ledger{graphMode: cfg.graphShape != ""}
	switch {
	case cfg.graphShape != "":
		err = runGraph(cfg, led)
	case cfg.rate > 0:
		err = runOpen(cfg, led)
	default:
		err = runClosed(cfg, led)
	}
	if err == nil && cfg.metricsOut != "" {
		if err = writeJSON(cfg.metricsOut, reg.Snapshot()); err == nil {
			fmt.Fprintf(os.Stderr, "loadgen: metrics snapshot written to %s\n", cfg.metricsOut)
		}
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	violations := led.violations()
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %s\n", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runClosed is the default mode: closed-loop drivers, each repeatedly
// drawing a scenario, running it to completion, and recording the
// latency. The default driver count keeps the running tier and the
// admission queue both full without tripping rejection; -drivers beyond
// sessions+queue exercises the ErrPoolSaturated path too (rejections are
// reported in the pool line).
func runClosed(cfg config, led *ledger) error {
	goroutinesBefore := runtime.NumGoroutine()
	pool := serve.New(
		serve.WithMaxSessions(cfg.sessions),
		serve.WithQueueDepth(cfg.queue),
		serve.WithRuntime(cfg.runtime...),
	)
	stats := newSessionStats(cfg.mix, false, led)
	nDrivers := cfg.drivers
	if nDrivers <= 0 {
		nDrivers = cfg.sessions + cfg.queue
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d sessions, queue %d, %d drivers, mix %q, %v, scale=%s mode=%s detector=%s inject=%g deadline=%q\n",
		cfg.sessions, cfg.queue, nDrivers, cfg.mixSpec, cfg.dur, cfg.scale, cfg.mode, cfg.detector, cfg.inject, cfg.deadlineSpec)
	deadline := time.Now().Add(cfg.dur)
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < nDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(d)))
			for time.Now().Before(deadline) {
				sc, dl := cfg.mix.draw(rng)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if dl > 0 {
					ctx, cancel = context.WithTimeout(ctx, dl)
				}
				sess, err := pool.Submit(ctx, sc.name, sc.prog)
				if err != nil {
					cancel()
					if cfg.verbose {
						fmt.Fprintf(os.Stderr, "loadgen: submit %s: %v\n", sc.name, err)
					}
					time.Sleep(time.Millisecond)
					continue
				}
				sess.Wait()
				cancel()
				// Sessions aborted in the admission queue never built a
				// runtime: their zero Duration is not a latency sample and
				// would drag the percentiles (and the committed serve
				// baseline) down artificially.
				stats.record(sc, dl, sess, sess.Runtime() != nil)
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
	// After Close every pool goroutine (scheduler workers, cleaner) must
	// be gone.
	led.leaked = settleLeaks(runtime.NumGoroutine, goroutinesBefore, leakWindow)

	ps := pool.Stats()
	led.eventsDropped = ps.EventsDropped
	fmt.Printf("serve load report: %d sessions completed in %v (%.1f/s aggregate)\n\n",
		ps.Completed, elapsed.Round(time.Millisecond), float64(ps.Completed)/elapsed.Seconds())
	rows, total := stats.report(elapsed, ps.Completed)
	fmt.Printf("pool: peak %d in-flight, %d rejected, %d canceled (%d deadline-injected), %d tasks, workers %d spawned / %d reused / %d thieves, %d wakes, %d dropped events\n",
		ps.Peak, ps.Rejected, ps.Canceled, total.Deadlined, ps.TasksRun, ps.WorkersSpawned, ps.WorkersReused, ps.WorkerThieves, ps.Wakes, ps.EventsDropped)
	fmt.Printf("goroutines: %d before, %d leaked after Close\n", goroutinesBefore, led.leaked)
	// The windowed digest next to the lifetime percentiles: over a run
	// shorter than the window span the two p99s must roughly agree (the
	// obs acceptance bound is 2x); over a longer run the window only
	// holds the most recent traffic, which is exactly its point.
	fmt.Printf("observe (last %v): exec n=%d p50=%.3fms p99=%.3fms | queue-wait p99=%.3fms (lifetime exec p99=%.3fms)\n",
		observation.Span, observation.Exec.Count, observation.Exec.P50Ms, observation.Exec.P99Ms,
		observation.QueueWait.P99Ms, total.P99Ms)

	if cfg.jsonOut == "" {
		return nil
	}
	rep := serveReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Sessions:    cfg.sessions,
		Queue:       cfg.queue,
		Duration:    cfg.dur.String(),
		Scale:       cfg.scale,
		Mode:        cfg.mode,
		Detector:    cfg.detector,
		Mix:         cfg.mixSpec,
		Inject:      cfg.inject,
		Deadline:    cfg.deadlineSpec,
		Scenarios:   rows,
		Total:       total,
		Pool:        ps,
		Observe:     observation,
	}
	if err := writeJSONSection(cfg.jsonOut, "serve", rep); err != nil {
		return fmt.Errorf("writing %s: %w", cfg.jsonOut, err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: report written to %s\n", cfg.jsonOut)
	return nil
}
