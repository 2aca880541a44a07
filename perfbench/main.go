// Command perfbench is the repository's benchmark program. It runs one
// named workload against the promise runtime and the layers above it
// (core, sched, serve, front, graph), checks every output the workload
// produces, and prints one JSON result line as the last line of its
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload pool-closed --seed 1 --seconds 15 --trace 0
//
// Every input derives from -seed. attempted counts the operations whose
// output was checked and failed those that were wrong, refused or in
// error; perfbench exits non-zero, after printing the result line with
// "correct": false, when any check fails: a wrong output, a goroutine
// leaked past Pool.Close or Front.Shutdown, a dropped trace event, or a
// detector alarm count that differs from the deadlocks submitted.
//
// # Workloads
//
// BENCHMARK.json records why each was chosen.
//
//   - table1: the paper's nine Table-1 programs at default scale, each on
//     a fresh core.Runtime under Full (lock-free detector) and under
//     Unverified, the two modes interleaved in a seeded order. Checksums
//     are compared with RunSequential, computed during set-up.
//   - pool-closed: one caller per CPU calls serve.Pool.Submit and then
//     Session.Wait, on a pool with one session slot per caller, for a
//     seeded mix of a no-op body, an 8-child fan and the paper's
//     Listing 1 (deadlockPercent of the sessions, see bodies.go).
//   - front-closed: one loopback connection per CPU, each its own tenant,
//     to a self-hosted front.Front; each connection sends a seeded mix of
//     a no-op body and Listing 1 (deadlockPercent again), the same share
//     of requests asking for their event log, and waits for every
//     verdict before the next.
//   - graph-dag: one runner runs graph.Graph after graph.Graph on a pool
//     with a session slot per CPU: seeded 32-node random DAGs with doomed
//     and flaky nodes, and every fourth graph a PPG ladder.
//
// # End-to-end metrics
//
// Measured with tracing off; an operation is a program run (table1), a
// session (pool-closed), a request (front-closed) or a graph
// (graph-dag). An operation's time is its wall-clock latency on
// pool-closed (Submit to the return of Wait) and front-closed
// (Client.Submit to the verdict's arrival), and the process's CPU time
// over Runtime.Run (table1) or Graph.Run (graph-dag), which run one at a
// time.
//
//   - setup_s: the CPU time of one set-up, median of five, each building
//     the inputs and reference outputs, the pool or the front and its
//     clients, and then running a fixed warm-up.
//   - full_geomean_s: geometric mean, over the workload's operation kinds,
//     of each kind's median operation time, all in Full mode. On table1
//     this is the paper's verified time, in CPU seconds.
//   - heap_mb: Go heap objects averaged over the measured phase, sampled
//     every 10 ms through runtime/metrics (table1: Full runs only).
//   - throughput_per_cpu_s: sessions completed (pool-closed), verdicts
//     received (front-closed) or graph nodes reaching a terminal state
//     (graph-dag) per second of the process's CPU time over the measured
//     phase; on table1 the median over rounds of program runs per CPU
//     second of those runs.
//   - op_time_p50_ms, op_time_p90_ms: percentiles of operation times. A
//     failed or refused operation counts as slower than any percentile.
//     On table1 they run over the nine programs' median times.
//
// CPU time leaves out the time a shared machine's host takes a virtual
// CPU away (steal). On the 2-vCPU VM this benchmark was tuned on, steal
// came in bursts of 20-35% lasting 30-60 s. During them the table1 runs'
// wall-clock times grew by up to 70% and the graph-dag p90 latency by up
// to 75%, while their CPU times moved by under 15%; front-closed
// wall-clock throughput halved and its set-up wall time grew 2.5-fold.
// The latency of the short pool and front operations moved by under 20%
// at p90, so they keep the wall clock, and the traced run reports
// wall-clock times for every layer.
//
// # Traced run
//
// With -trace 1 the workload runs again with spans recorded from this
// package around each public call (Runtime.Run, Pool.Submit,
// Session.Wait, Client.Submit, RemoteSession.Done, Graph.Run) and around
// the session bodies it hands to the pool or the front. Spans of one
// request share an id; they stay in memory and are written to
// .bench_build/spans/<workload>.tsv when the run ends. The per-layer
// metrics (see catalog.go) are derived from them, and the traced run's
// own end-to-end numbers go to standard error so that the tracing
// overhead can be read off. A per-layer metric of a layer the workload
// does not exercise reads 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/workloads"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	dur      time.Duration // measured phase
	trace    bool
	// scale sizes the Table-1 programs; tests shrink it.
	scale workloads.Scale
	// spanDir receives the traced run's span file.
	spanDir string
	// inject corrupts one reference the output checks compare against
	// ("checksum", "verdict" or "oracle"); the benchmark's own tests use
	// it to show that a wrong output fails the run.
	inject string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line perfbench prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: operation counts, end-to-end
// metrics (always), per-layer metrics (traced runs only), and any
// run-level check that failed beyond individual operations.
type report struct {
	attempted, failed int64
	problems          []string
	notes             []string // extra lines for the human-readable summary
	e2e               map[string]metric
	layer             map[string]metric
	// samples names the sample count behind each end-to-end percentile,
	// for the human-readable summary.
	samples map[string]int64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// stderr receives the human-readable summary; tests silence it.
var stderr io.Writer = os.Stderr

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(config) (*report, error){
	"table1":       runTable1,
	"pool-closed":  runPoolClosed,
	"front-closed": runFrontClosed,
	"graph-dag":    runGraphDAG,
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1, pool-closed, front-closed or graph-dag")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.scale = workloads.ScaleDefault
	cfg.spanDir = filepath.Join(".bench_build", "spans")

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles the result line, printing a
// human-readable summary to standard error on the way.
func run(cfg config) (*result, error) {
	fn, ok := workloadFuncs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep, err := fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.complete()
	if rep.attempted < 1 {
		rep.problem("no operation attempted")
	}
	if rep.failed > 0 {
		rep.problem("%d of %d operations failed their output check", rep.failed, rep.attempted)
	}
	res := &result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	label := "end-to-end"
	if cfg.trace {
		res.Metrics = rep.layer
		label = "traced end-to-end"
	}
	w := stderr
	fmt.Fprintf(w, "perfbench %s seed=%d: %d attempted, %d failed, GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, rep.attempted, rep.failed, runtime.GOMAXPROCS(0))
	printMetrics(w, label, rep.e2e, rep.samples)
	if cfg.trace {
		printMetrics(w, "per-layer", rep.layer, nil)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	return res, nil
}

func printMetrics(w io.Writer, label string, ms map[string]metric, samples map[string]int64) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s:\n", label)
	for _, n := range names {
		var extra string
		if c, ok := samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "    %-36s %14.6g %s%s\n", n, ms[n].Value, ms[n].Unit, extra)
	}
}
