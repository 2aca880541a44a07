// Command benchtable regenerates Table 1 of the paper: for each of the
// nine benchmarks it measures the unverified baseline and the fully
// verified run (time and memory), the task total, and the get/set rates,
// then prints the table with geometric-mean overheads, followed by
// Figure 1 (the same rows' mean times with 95% confidence intervals as
// ASCII bars; -csv emits its columns for external plotting).
//
// Usage:
//
//	benchtable [-scale small|default|paper] [-reps N] [-warmups N]
//	           [-bench name] [-csv] [-json out.json] [-history out.json]
//	           [-detector lockfree|globallock] [-tracking list|counter]
//	           [-check baseline.json [-checkreps N] [-checktol F]
//	            [-alloccap name=N,...]]
//
// -scale paper selects the paper's workload sizes and measurement protocol
// (30 reps, 5 warm-ups); the default scale finishes in a few minutes on a
// small container. -detector and -tracking select ablation verifiers.
//
// -json writes the Table-1 rows plus the fast-path microbenchmarks
// (fulfilled-get / setget / spawn ns/op, B/op, allocs/op) as a JSON
// report; the checked-in BENCH_table1.json is generated this way and
// serves as the perf trajectory baseline for later PRs. If the output
// file already exists, its micro section is carried forward under
// "prev_micro" so regenerating the file keeps one step of history.
//
// -check FILE is the CI perf-regression gate: instead of regenerating the
// table it re-measures only the fast-path micros and compares them against
// FILE's micro section, failing (exit 1) when any entry's ns/op regresses
// by more than -checktol (default 25%) or its allocs/op count grows at
// all. Each micro is measured -checkreps times and the best run is
// compared, which suppresses scheduler noise without hiding real
// regressions; allocation counts are deterministic, so for them best-of is
// exact. -alloccap "name=N,name=N" additionally enforces absolute
// allocs/op ceilings per micro name (across every mode), so a hot path's
// allocation budget is pinned even when the committed baseline drifts; a
// name that matches no baseline micro row is a usage error (exit 2).
//
// -history FILE appends a compact record of each measured run (the micro
// section plus the Table-1 geomeans) to FILE as a JSON array, giving the
// perf trajectory a machine-readable, append-only form across PRs; the
// checked-in BENCH_history.json is maintained this way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// report is the BENCH_table1.json schema.
type report struct {
	GeneratedAt         string          `json:"generated_at"`
	Scale               string          `json:"scale"`
	Mode                string          `json:"mode"`
	Detector            string          `json:"detector"`
	Tracking            string          `json:"tracking"`
	Reps                int             `json:"reps"`
	Warmups             int             `json:"warmups"`
	Rows                []harness.Row   `json:"rows"`
	GeomeanTimeOverhead float64         `json:"geomean_time_overhead"`
	GeomeanMemOverhead  float64         `json:"geomean_mem_overhead"`
	Micro               []harness.Micro `json:"micro"`
	// PrevMicro is the micro section of the file this run overwrote, if
	// any — one step of fast-path history for at-a-glance regressions.
	PrevMicro []harness.Micro `json:"prev_micro,omitempty"`
}

func writeJSON(path string, rep report) error {
	var oldDoc map[string]json.RawMessage
	if prev, err := os.ReadFile(path); err == nil {
		var old report
		if json.Unmarshal(prev, &old) == nil {
			rep.PrevMicro = old.Micro
		}
		json.Unmarshal(prev, &oldDoc)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return err
	}
	// Sections owned by other tools (e.g. cmd/loadgen's "serve") survive a
	// table regeneration untouched.
	for k, v := range oldDoc {
		if _, ok := doc[k]; !ok {
			doc[k] = v
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// historyEntry is one appended record of BENCH_history.json: enough to
// plot the fast-path and Table-1 trajectory without carrying the full
// per-row confidence intervals.
type historyEntry struct {
	GeneratedAt         string          `json:"generated_at"`
	Scale               string          `json:"scale"`
	Mode                string          `json:"mode"`
	Detector            string          `json:"detector"`
	Tracking            string          `json:"tracking"`
	GeomeanTimeOverhead float64         `json:"geomean_time_overhead,omitempty"`
	GeomeanMemOverhead  float64         `json:"geomean_mem_overhead,omitempty"`
	Micro               []harness.Micro `json:"micro"`
}

// appendHistory appends entry to the JSON array at path (creating it when
// absent), so successive -json runs accumulate a machine-readable perf
// trajectory across PRs. Earlier records keep every field, whatever their
// shape: the array also holds perfbench end-to-end records.
func appendHistory(path string, entry historyEntry) error {
	var hist []json.RawMessage
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &hist); err != nil {
			return fmt.Errorf("%s is not a history array: %w", path, err)
		}
	}
	rec, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	hist = append(hist, rec)
	out, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// parseAllocCaps parses the -alloccap spec "name=N[,name=N...]" into a
// per-micro-name ceiling map. Every name must match a row of the baseline
// micros: a cap on a name nothing measures would silently pin nothing.
func parseAllocCaps(spec string, baseline []harness.Micro) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range baseline {
		known[m.Name] = true
	}
	caps := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.IndexByte(part, '=')
		if i < 0 {
			return nil, fmt.Errorf("bad alloc cap %q (want name=N)", part)
		}
		v, err := strconv.ParseFloat(part[i+1:], 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad alloc cap %q", part)
		}
		if !known[part[:i]] {
			return nil, fmt.Errorf("alloc cap %q names no micro row in the baseline", part)
		}
		caps[part[:i]] = v
	}
	return caps, nil
}

// checkMicros is the -check gate: measure the fast-path micros reps times,
// keep each entry's best run, and compare against the baseline report's
// micro section. allocCaps adds absolute per-name allocs/op ceilings on
// top of the no-growth rule. Returns the number of regressions.
func checkMicros(baseline report, reps int, tol float64, allocCaps map[string]float64) (int, error) {
	if reps < 1 {
		reps = 1
	}
	best := map[string]harness.Micro{}
	for r := 0; r < reps; r++ {
		fmt.Fprintf(os.Stderr, "[%s] check pass %d/%d...\n", time.Now().Format("15:04:05"), r+1, reps)
		micros, err := harness.MeasureMicros([]core.Mode{core.Unverified, core.Ownership, core.Full})
		if err != nil {
			return 0, err
		}
		for _, m := range micros {
			key := m.Name + "/" + m.Mode
			b, ok := best[key]
			if !ok {
				best[key] = m
				continue
			}
			// ns/op and allocs/op take their minima independently: a pass
			// with a slower clock can still observe the true (lower) alloc
			// count, and discarding it would manufacture a false alloc
			// regression.
			if m.NsPerOp < b.NsPerOp {
				b.NsPerOp, b.BPerOp = m.NsPerOp, m.BPerOp
			}
			if m.AllocsPerOp < b.AllocsPerOp {
				b.AllocsPerOp = m.AllocsPerOp
			}
			best[key] = b
		}
	}
	fmt.Printf("perf gate vs baseline of %s (tolerance +%.0f%% ns/op, +0 allocs/op):\n\n",
		baseline.GeneratedAt, tol*100)
	fmt.Printf("%-24s %-12s %10s %10s %8s %8s %8s  %s\n",
		"micro", "mode", "base ns", "fresh ns", "delta", "base al", "fresh al", "status")
	regressions, compared := 0, 0
	for _, b := range baseline.Micro {
		key := b.Name + "/" + b.Mode
		m, ok := best[key]
		if !ok {
			// A micro present in the baseline but no longer measured: that
			// is a harness change, not a perf regression; flag it visibly
			// so the baseline gets regenerated.
			fmt.Printf("%-24s %-12s %10.1f %10s %8s %8.0f %8s  MISSING (regenerate baseline)\n",
				b.Name, b.Mode, b.NsPerOp, "-", "-", b.AllocsPerOp, "-")
			regressions++
			continue
		}
		compared++
		delta := m.NsPerOp/b.NsPerOp - 1
		status := "ok"
		if m.NsPerOp > b.NsPerOp*(1+tol) {
			status = "TIME REGRESSION"
			regressions++
		}
		// Allocation counts are integers measured with float jitter from
		// runtime background allocations; compare rounded values.
		if math.Round(m.AllocsPerOp) > math.Round(b.AllocsPerOp) {
			status = "ALLOC REGRESSION"
			regressions++
		}
		if limit, ok := allocCaps[b.Name]; ok && math.Round(m.AllocsPerOp) > limit {
			status = fmt.Sprintf("ALLOC CAP EXCEEDED (> %.0f)", limit)
			regressions++
		}
		fmt.Printf("%-24s %-12s %10.1f %10.1f %+7.1f%% %8.0f %8.0f  %s\n",
			b.Name, b.Mode, b.NsPerOp, m.NsPerOp, delta*100, b.AllocsPerOp, m.AllocsPerOp, status)
	}
	if compared == 0 {
		return 0, fmt.Errorf("no comparable micro entries in the baseline")
	}
	return regressions, nil
}

func main() {
	scaleFlag := flag.String("scale", "default", "workload scale: small, default, paper")
	reps := flag.Int("reps", 0, "timed repetitions (0 = protocol default)")
	warmups := flag.Int("warmups", -1, "discarded warm-up runs (-1 = protocol default)")
	benchFlag := flag.String("bench", "", "run only the named benchmark (comma-separated list)")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	jsonOut := flag.String("json", "", "also write rows + fast-path micros as JSON to this file")
	modeFlag := flag.String("mode", "full", "verified configuration: ownership (Algorithm 1 only), full (Algorithms 1+2)")
	detector := flag.String("detector", "lockfree", "verified detector: lockfree, globallock")
	tracking := flag.String("tracking", "list", "owned-set tracking: list, counter")
	check := flag.String("check", "", "regression-gate mode: compare fresh micros against this baseline JSON and exit nonzero on regression")
	checkTol := flag.Float64("checktol", 0.25, "allowed fractional ns/op regression in -check mode")
	checkReps := flag.Int("checkreps", 3, "measurement passes in -check mode (best run is compared)")
	allocCap := flag.String("alloccap", "", `absolute allocs/op ceilings in -check mode: "name=N[,name=N...]"`)
	history := flag.String("history", "", "append this run's micro section (and geomeans, when measured) to the JSON array at this path")
	flag.Parse()

	if *check != "" {
		buf, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
			os.Exit(1)
		}
		var baseline report
		if err := json.Unmarshal(buf, &baseline); err != nil || len(baseline.Micro) == 0 {
			fmt.Fprintf(os.Stderr, "benchtable: %s is not a benchtable report with a micro section (%v)\n", *check, err)
			os.Exit(1)
		}
		caps, err := parseAllocCaps(*allocCap, baseline.Micro)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
			os.Exit(2)
		}
		regressions, err := checkMicros(baseline, *checkReps, *checkTol, caps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchtable: FAIL: %d fast-path regressions vs %s\n", regressions, *check)
			os.Exit(1)
		}
		fmt.Println("\nperf gate: ok")
		return
	}

	scale := workloads.ParseScale(*scaleFlag)
	opts := harness.DefaultOptions()
	if scale == workloads.ScalePaper {
		opts = harness.PaperOptions()
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *warmups >= 0 {
		opts.Warmups = *warmups
	}

	verified := []core.Option{core.WithMode(core.Full)}
	switch *modeFlag {
	case "full":
	case "ownership":
		verified = []core.Option{core.WithMode(core.Ownership)}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	switch *detector {
	case "lockfree":
	case "globallock":
		verified = append(verified, core.WithDetector(core.DetectGlobalLock))
	default:
		fmt.Fprintf(os.Stderr, "unknown detector %q\n", *detector)
		os.Exit(2)
	}
	switch *tracking {
	case "list":
	case "counter":
		verified = append(verified, core.WithOwnedTracking(core.TrackCounter))
	default:
		fmt.Fprintf(os.Stderr, "unknown tracking %q\n", *tracking)
		os.Exit(2)
	}

	entries := workloads.All()
	if *benchFlag != "" {
		var sel []workloads.Entry
		for _, name := range strings.Split(*benchFlag, ",") {
			e, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
				os.Exit(2)
			}
			sel = append(sel, e)
		}
		entries = sel
	}

	var rows []harness.Row
	for _, e := range entries {
		fmt.Fprintf(os.Stderr, "[%s] measuring %s (scale=%s, reps=%d)...\n",
			time.Now().Format("15:04:05"), e.Name, *scaleFlag, opts.Reps)
		row, err := harness.MeasureRow(harness.Spec{Name: e.Name, Prog: e.Prog(scale)}, opts, verified...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
			os.Exit(1)
		}
		rows = append(rows, row)
	}

	if *jsonOut != "" || *history != "" {
		fmt.Fprintf(os.Stderr, "[%s] measuring fast-path micros...\n", time.Now().Format("15:04:05"))
		micros, err := harness.MeasureMicros([]core.Mode{core.Unverified, core.Ownership, core.Full})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
			os.Exit(1)
		}
		tOv, mOv := harness.Geomeans(rows)
		rep := report{
			GeneratedAt:         time.Now().UTC().Format(time.RFC3339),
			Scale:               *scaleFlag,
			Mode:                *modeFlag,
			Detector:            *detector,
			Tracking:            *tracking,
			Reps:                opts.Reps,
			Warmups:             opts.Warmups,
			Rows:                rows,
			GeomeanTimeOverhead: tOv,
			GeomeanMemOverhead:  mOv,
			Micro:               micros,
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: writing %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
		}
		if *history != "" {
			entry := historyEntry{
				GeneratedAt:         rep.GeneratedAt,
				Scale:               rep.Scale,
				Mode:                rep.Mode,
				Detector:            rep.Detector,
				Tracking:            rep.Tracking,
				GeomeanTimeOverhead: rep.GeomeanTimeOverhead,
				GeomeanMemOverhead:  rep.GeomeanMemOverhead,
				Micro:               rep.Micro,
			}
			if err := appendHistory(*history, entry); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: history %s: %v\n", *history, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "[%s] history appended to %s\n", time.Now().Format("15:04:05"), *history)
		}
	}

	if *csv {
		fmt.Print(harness.RenderCSV(rows))
		return
	}
	fmt.Printf("Table 1: verification overheads (scale=%s, mode=%s, detector=%s, tracking=%s, reps=%d, warmups=%d)\n\n",
		*scaleFlag, *modeFlag, *detector, *tracking, opts.Reps, opts.Warmups)
	fmt.Print(harness.RenderTable1(rows))
	fmt.Println()
	fmt.Print(harness.RenderFigure1(rows))
}
