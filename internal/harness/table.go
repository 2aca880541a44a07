package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Body is one prepared run of a program: it runs under its root task and
// returns the run's checksum. It runs once.
type Body = func(*core.Task) (uint64, error)

// Spec names one benchmark, how to prepare a run of it, and the checksum
// every run must return.
type Spec struct {
	Name string
	// Prepare builds the inputs and returns a fresh body; it is called
	// before every run, off the clock.
	Prepare func() (Body, error)
	// Want computes the reference checksum; when it is nil, every run
	// must agree with the first.
	Want func() uint64
}

// checker returns a check of run checksums against Want, computed here
// once, off the clock, or, when Want is nil, against the first checksum
// it is given.
func (s Spec) checker() func(sum uint64) error {
	want, pinned := uint64(0), s.Want != nil
	if pinned {
		want = s.Want()
	}
	return func(sum uint64) error {
		if !pinned {
			want, pinned = sum, true
		}
		if sum != want {
			return fmt.Errorf("harness: %s returned checksum %#x, want %#x", s.Name, sum, want)
		}
		return nil
	}
}

// Row is one line of Table 1 plus the Figure 1 inputs. The json tags are
// the schema of BENCH_table1.json (cmd/benchtable -json), the repo's
// machine-readable perf trajectory.
type Row struct {
	Name string `json:"benchmark"`

	BaselineSec  float64 `json:"baseline_s"` // mean unverified execution time
	BaselineCI   float64 `json:"baseline_ci95"`
	VerifiedSec  float64 `json:"verified_s"` // mean Full-mode execution time
	VerifiedCI   float64 `json:"verified_ci95"`
	TimeOverhead float64 `json:"time_overhead"`

	BaselineMB  float64 `json:"baseline_mb"`
	VerifiedMB  float64 `json:"verified_mb"`
	MemOverhead float64 `json:"mem_overhead"`

	Tasks     int64   `json:"tasks"`
	GetsPerMs float64 `json:"gets_per_ms"` // rate w.r.t. baseline execution time, as in Table 1
	SetsPerMs float64 `json:"sets_per_ms"`
}

// MeasureRow produces the full Table-1 row for one benchmark: baseline vs
// verified time, baseline vs verified memory, and event totals/rates.
// verified selects the verified runtime's configuration (normally Full
// with the lock-free detector; ablations pass other options). Every run
// of the row must return the same checksum, Want's when it is set, or
// the row fails.
func MeasureRow(spec Spec, opts Options, verified ...core.Option) (Row, error) {
	row := Row{Name: spec.Name}
	check := spec.checker()
	baseRT := func() *core.Runtime { return core.NewRuntime(core.WithMode(core.Unverified)) }
	verOpts := verified
	if len(verOpts) == 0 {
		verOpts = []core.Option{core.WithMode(core.Full)}
	}
	verRT := func() *core.Runtime { return core.NewRuntime(verOpts...) }

	bt, err := MeasureTime(baseRT, spec.Prepare, check, opts)
	if err != nil {
		return row, fmt.Errorf("%s baseline: %w", spec.Name, err)
	}
	vt, err := MeasureTime(verRT, spec.Prepare, check, opts)
	if err != nil {
		return row, fmt.Errorf("%s verified: %w", spec.Name, err)
	}
	row.BaselineSec, row.BaselineCI = bt.Mean(), bt.CI()
	row.VerifiedSec, row.VerifiedCI = vt.Mean(), vt.CI()
	if row.BaselineSec > 0 {
		row.TimeOverhead = row.VerifiedSec / row.BaselineSec
	}

	bm, err := MeasureMemory(baseRT, spec.Prepare, check, opts)
	if err != nil {
		return row, fmt.Errorf("%s baseline memory: %w", spec.Name, err)
	}
	vm, err := MeasureMemory(verRT, spec.Prepare, check, opts)
	if err != nil {
		return row, fmt.Errorf("%s verified memory: %w", spec.Name, err)
	}
	row.BaselineMB, row.VerifiedMB = bm, vm
	if bm > 0 {
		row.MemOverhead = vm / bm
	}

	st, err := CountEvents(core.Unverified, spec.Prepare, check)
	if err != nil {
		return row, err
	}
	row.Tasks = st.Tasks
	baseMs := row.BaselineSec * 1000
	if baseMs > 0 {
		row.GetsPerMs = float64(st.Gets) / baseMs
		row.SetsPerMs = float64(st.Sets) / baseMs
	}
	return row, nil
}

// Geomeans returns the geometric-mean time and memory overheads of rows.
func Geomeans(rows []Row) (timeOv, memOv float64) {
	var ts, ms []float64
	for _, r := range rows {
		ts = append(ts, r.TimeOverhead)
		ms = append(ms, r.MemOverhead)
	}
	return Geomean(ts), Geomean(ms)
}

// RenderTable1 renders rows in the layout of the paper's Table 1.
func RenderTable1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %9s %13s %9s %9s %10s %10s\n",
		"Benchmark", "Baseline(s)", "Overhead", "Baseline(MB)", "Overhead", "Tasks", "Gets/ms", "Sets/ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.3f %9s %13.2f %9s %9d %10.2f %10.2f\n",
			r.Name, r.BaselineSec, fmtOverhead(r.TimeOverhead),
			r.BaselineMB, fmtOverhead(r.MemOverhead),
			r.Tasks, r.GetsPerMs, r.SetsPerMs)
	}
	t, m := Geomeans(rows)
	fmt.Fprintf(&b, "%-16s %12s %9s %13s %9s\n", "Geometric Mean", "", fmtOverhead(t), "", fmtOverhead(m))
	return b.String()
}

// RenderCSV renders rows as CSV with full precision, including the
// confidence intervals Figure 1 needs.
func RenderCSV(rows []Row) string {
	var b strings.Builder
	b.WriteString("benchmark,baseline_s,baseline_ci95,verified_s,verified_ci95,time_overhead,baseline_mb,verified_mb,mem_overhead,tasks,gets_per_ms,sets_per_ms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.6f,%.6f,%.6f,%.6f,%.4f,%.3f,%.3f,%.4f,%d,%.3f,%.3f\n",
			r.Name, r.BaselineSec, r.BaselineCI, r.VerifiedSec, r.VerifiedCI, r.TimeOverhead,
			r.BaselineMB, r.VerifiedMB, r.MemOverhead, r.Tasks, r.GetsPerMs, r.SetsPerMs)
	}
	return b.String()
}

// RenderFigure1 renders the paper's Figure 1 as ASCII: per benchmark, the
// baseline and verified mean execution times as horizontal bars with the
// 95% confidence half-width noted.
func RenderFigure1(rows []Row) string {
	const width = 50
	var maxSec float64
	for _, r := range rows {
		if r.BaselineSec > maxSec {
			maxSec = r.BaselineSec
		}
		if r.VerifiedSec > maxSec {
			maxSec = r.VerifiedSec
		}
	}
	if maxSec == 0 {
		maxSec = 1
	}
	bar := func(sec float64) string {
		n := int(sec / maxSec * width)
		if n < 1 && sec > 0 {
			n = 1
		}
		return strings.Repeat("#", n)
	}
	var b strings.Builder
	b.WriteString("Execution times (mean with 95% CI), baseline vs verified\n\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s base %-*s %8.3fs ±%.3f\n", r.Name, width, bar(r.BaselineSec), r.BaselineSec, r.BaselineCI)
		fmt.Fprintf(&b, "%-16s full %-*s %8.3fs ±%.3f\n", "", width, bar(r.VerifiedSec), r.VerifiedSec, r.VerifiedCI)
	}
	return b.String()
}
