package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// Options controls the measurement protocol.
type Options struct {
	Warmups     int           // discarded runs before timing (paper: 5)
	Reps        int           // timed repetitions (paper: 30)
	MemInterval time.Duration // memory sampling period (paper: 10ms)
	MemReps     int           // repetitions of the memory run (averaged)
}

// DefaultOptions is a container-friendly version of the paper's protocol.
func DefaultOptions() Options {
	return Options{Warmups: 2, Reps: 10, MemInterval: 10 * time.Millisecond, MemReps: 1}
}

// PaperOptions is the paper's exact protocol: 30 repetitions after 5
// warm-ups.
func PaperOptions() Options {
	return Options{Warmups: 5, Reps: 30, MemInterval: 10 * time.Millisecond, MemReps: 3}
}

// TimeSample holds per-repetition wall-clock times, in seconds.
type TimeSample struct {
	Times []float64
}

// Mean returns the mean time in seconds.
func (s TimeSample) Mean() float64 { return Mean(s.Times) }

// CI returns the 95% confidence half-width in seconds.
func (s TimeSample) CI() float64 { return CI95(s.Times) }

// MeasureTime runs prepared bodies under runtimes built by makeRT,
// discarding warm-ups and timing reps repetitions. Each run's body is
// prepared before the clock starts, and its checksum is checked after it
// stops.
func MeasureTime(makeRT func() *core.Runtime, prepare func() (Body, error), check func(uint64) error, opts Options) (TimeSample, error) {
	var out TimeSample
	for i := 0; i < opts.Warmups+opts.Reps; i++ {
		rt := makeRT()
		body, err := prepare()
		if err != nil {
			return out, fmt.Errorf("harness: prepare failed: %w", err)
		}
		// Collect garbage left by previous repetitions (and previous
		// benchmarks in the same process) so each rep starts from a
		// comparable heap; otherwise allocation-heavy programs inherit
		// wildly different GC pacing from whatever ran before.
		runtime.GC()
		start := time.Now()
		sum, err := run(rt, body)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return out, fmt.Errorf("harness: benchmark run failed: %w", err)
		}
		if err := check(sum); err != nil {
			return out, err
		}
		if i >= opts.Warmups {
			out.Times = append(out.Times, elapsed)
		}
	}
	return out, nil
}

// MeasureMemory runs a prepared body once per MemRep with a sampler
// reading the heap every MemInterval, and returns the average sampled
// heap footprint of the run itself, in megabytes: the post-GC heap level
// measured just before the run, after its body is prepared, is
// subtracted from every sample, so neither the prepared inputs nor
// residue from earlier benchmarks in the same process pollute the
// number. A small floor keeps ratios stable for programs whose footprint
// is tiny.
func MeasureMemory(makeRT func() *core.Runtime, prepare func() (Body, error), check func(uint64) error, opts Options) (float64, error) {
	reps := opts.MemReps
	if reps < 1 {
		reps = 1
	}
	interval := opts.MemInterval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	var perRun []float64
	for r := 0; r < reps; r++ {
		body, err := prepare()
		if err != nil {
			return 0, fmt.Errorf("harness: prepare failed: %w", err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // second pass collects finalizer-revived garbage
		runtime.ReadMemStats(&ms)
		floor := float64(ms.HeapAlloc)
		stop := make(chan struct{})
		samples := make(chan float64, 1)
		go func() {
			var ms runtime.MemStats
			var sum float64
			var n int
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					runtime.ReadMemStats(&ms)
					sum += float64(ms.HeapAlloc) - floor
					n++
				case <-stop:
					// Always take a final sample so short runs yield data.
					runtime.ReadMemStats(&ms)
					sum += float64(ms.HeapAlloc) - floor
					n++
					samples <- sum / float64(n) / (1 << 20)
					return
				}
			}
		}()
		rt := makeRT()
		sum, err := run(rt, body)
		close(stop)
		avg := <-samples
		if err != nil {
			return 0, fmt.Errorf("harness: memory run failed: %w", err)
		}
		if err := check(sum); err != nil {
			return 0, err
		}
		const floorMB = 0.25 // ignore sub-floor noise
		if avg < floorMB {
			avg = floorMB
		}
		perRun = append(perRun, avg)
	}
	return Mean(perRun), nil
}

// CountEvents performs one run with event counting enabled and returns
// the totals, used for the Tasks / Gets/ms / Sets/ms columns.
func CountEvents(mode core.Mode, prepare func() (Body, error), check func(uint64) error) (core.Stats, error) {
	body, err := prepare()
	if err != nil {
		return core.Stats{}, fmt.Errorf("harness: prepare failed: %w", err)
	}
	rt := core.NewRuntime(core.WithMode(mode), core.WithEventCounting(true))
	sum, err := run(rt, body)
	if err != nil {
		return core.Stats{}, fmt.Errorf("harness: counting run failed: %w", err)
	}
	return rt.Stats(), check(sum)
}

// run runs a prepared body as rt's root task and returns its checksum.
func run(rt *core.Runtime, body Body) (sum uint64, err error) {
	err = rt.Run(func(t *core.Task) (err error) {
		sum, err = body(t)
		return err
	})
	return sum, err
}
