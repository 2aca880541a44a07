package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12) {
		t.Fatal("mean")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Fatal("single-value stddev")
	}
	// Known sample: 2,4,4,4,5,5,7,9 has sample stddev ~2.138.
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(got, 2.13809, 1e-4) {
		t.Fatalf("stddev = %g", got)
	}
}

func TestCI95KnownValues(t *testing.T) {
	// For n=30 samples of constant spacing, CI = t(29) * sd / sqrt(30).
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i)
	}
	want := 2.045 * Stddev(xs) / math.Sqrt(30)
	if got := CI95(xs); !almost(got, want, 1e-9) {
		t.Fatalf("CI95 = %g, want %g", got, want)
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("single-sample CI")
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical(df)
		if v > prev+1e-9 {
			t.Fatalf("t-critical not non-increasing at df=%d: %g > %g", df, v, prev)
		}
		prev = v
	}
	if tCritical(1e9) != 1.960 {
		t.Fatal("normal limit")
	}
	if tCritical(0) != 0 {
		t.Fatal("df=0")
	}
}

func TestGeomean(t *testing.T) {
	if !almost(Geomean([]float64{1, 4}), 2, 1e-12) {
		t.Fatal("geomean")
	}
	if !almost(Geomean([]float64{1.12}), 1.12, 1e-12) {
		t.Fatal("identity")
	}
	if !math.IsNaN(Geomean([]float64{1, -1})) {
		t.Fatal("negative input must yield NaN")
	}
	if Geomean(nil) != 0 {
		t.Fatal("empty")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even")
	}
	if Median(nil) != 0 {
		t.Fatal("empty")
	}
}

// trivial prepares a body that fulfils one promise from a child task,
// after sleeping d, and returns its value, 1.
func trivial(d time.Duration) func() (Body, error) {
	return func() (Body, error) {
		return func(tk *core.Task) (uint64, error) {
			p := core.NewPromise[int](tk)
			if _, err := tk.Async(func(c *core.Task) error {
				if d > 0 {
					time.Sleep(d)
				}
				return p.Set(c, 1)
			}, p); err != nil {
				return 0, err
			}
			v, err := p.Get(tk)
			return uint64(v), err
		}, nil
	}
}

func noCheck(uint64) error { return nil }

func TestMeasureTimeRepetitions(t *testing.T) {
	opts := Options{Warmups: 2, Reps: 5}
	mk := func() *core.Runtime { return core.NewRuntime(core.WithMode(core.Unverified)) }
	s, err := MeasureTime(mk, trivial(time.Millisecond), noCheck, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) != 5 {
		t.Fatalf("%d samples, want 5 (warmups must be discarded)", len(s.Times))
	}
	if s.Mean() < 0.001 {
		t.Fatalf("mean %g below the program's sleep", s.Mean())
	}
}

func TestMeasureTimePropagatesFailure(t *testing.T) {
	opts := Options{Warmups: 0, Reps: 2}
	mk := func() *core.Runtime { return core.NewRuntime(core.WithMode(core.Full)) }
	bad := func() (Body, error) {
		return func(tk *core.Task) (uint64, error) {
			p := core.NewPromise[int](tk)
			_, err := p.Get(tk) // self-deadlock
			return 0, err
		}, nil
	}
	if _, err := MeasureTime(mk, bad, noCheck, opts); err == nil {
		t.Fatal("failure not propagated")
	}
}

// TestMeasureTimePreparesOffTheClock pins setup off the clock: a
// program whose preparation sleeps 20 ms and whose body returns at once
// must time every rep far below the sleep.
func TestMeasureTimePreparesOffTheClock(t *testing.T) {
	slow := func() (Body, error) {
		time.Sleep(20 * time.Millisecond)
		return func(*core.Task) (uint64, error) { return 0, nil }, nil
	}
	mk := func() *core.Runtime { return core.NewRuntime(core.WithMode(core.Unverified)) }
	s, err := MeasureTime(mk, slow, noCheck, Options{Warmups: 1, Reps: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, sec := range s.Times {
		if sec >= 0.010 {
			t.Fatalf("rep %d took %.1f ms: preparation ran on the clock", i, sec*1000)
		}
	}
}

// TestMeasureRowChecksResults pins the checksum check: a row whose runs
// miss Want, or, without Want, disagree with each other, fails.
func TestMeasureRowChecksResults(t *testing.T) {
	opts := Options{Warmups: 0, Reps: 2, MemInterval: time.Millisecond, MemReps: 1}
	wrong := Spec{Name: "Wrong", Prepare: trivial(0), Want: func() uint64 { return 2 }}
	if _, err := MeasureRow(wrong, opts); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a wrong answer measured: err = %v", err)
	}
	var n uint64
	drifting := Spec{Name: "Drifting", Prepare: func() (Body, error) {
		n++
		sum := n
		return func(*core.Task) (uint64, error) { return sum, nil }, nil
	}}
	if _, err := MeasureRow(drifting, opts); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("disagreeing runs measured: err = %v", err)
	}
	right := Spec{Name: "Right", Prepare: trivial(0), Want: func() uint64 { return 1 }}
	if _, err := MeasureRow(right, opts); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureMemoryPositive(t *testing.T) {
	opts := DefaultOptions()
	opts.MemReps = 1
	mk := func() *core.Runtime { return core.NewRuntime(core.WithMode(core.Unverified)) }
	mb, err := MeasureMemory(mk, trivial(0), noCheck, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mb <= 0 {
		t.Fatalf("memory = %g MB", mb)
	}
}

func TestCountEvents(t *testing.T) {
	st, err := CountEvents(core.Unverified, trivial(0), noCheck)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gets != 1 || st.Sets != 1 || st.Tasks != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMeasureRowEndToEnd(t *testing.T) {
	opts := Options{Warmups: 1, Reps: 3, MemInterval: time.Millisecond, MemReps: 1}
	row, err := MeasureRow(Spec{Name: "Trivial", Prepare: trivial(0)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.BaselineSec <= 0 || row.VerifiedSec <= 0 {
		t.Fatalf("times: %+v", row)
	}
	if row.TimeOverhead <= 0 || row.MemOverhead <= 0 {
		t.Fatalf("overheads: %+v", row)
	}
	if row.Tasks != 2 {
		t.Fatalf("tasks = %d", row.Tasks)
	}
}

func TestRenderers(t *testing.T) {
	rows := []Row{
		{Name: "A", BaselineSec: 1.0, VerifiedSec: 1.12, TimeOverhead: 1.12, BaselineMB: 100, VerifiedMB: 106, MemOverhead: 1.06, Tasks: 42, GetsPerMs: 10, SetsPerMs: 9},
		{Name: "B", BaselineSec: 2.0, VerifiedSec: 2.0, TimeOverhead: 1.0, BaselineMB: 50, VerifiedMB: 50, MemOverhead: 1.0, Tasks: 7, GetsPerMs: 1, SetsPerMs: 1},
	}
	tbl := RenderTable1(rows)
	for _, want := range []string{"Benchmark", "A", "B", "1.12x", "Geometric Mean"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	gt, gm := Geomeans(rows)
	if !almost(gt, math.Sqrt(1.12), 1e-9) || !almost(gm, math.Sqrt(1.06), 1e-9) {
		t.Fatalf("geomeans = %g %g", gt, gm)
	}
	csv := RenderCSV(rows)
	if !strings.HasPrefix(csv, "benchmark,") || !strings.Contains(csv, "A,1.000000") {
		t.Fatalf("csv:\n%s", csv)
	}
	fig := RenderFigure1(rows)
	if !strings.Contains(fig, "#") || !strings.Contains(fig, "±") {
		t.Fatalf("figure:\n%s", fig)
	}
}

func TestRenderFigureZeroRows(t *testing.T) {
	if out := RenderFigure1(nil); !strings.Contains(out, "Execution times") {
		t.Fatal("header missing")
	}
}
