package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks. xs is sorted in place. A refused or failed
// operation is recorded as +Inf, so it lies beyond every percentile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(xs[hi], 1) {
		return math.MaxFloat64
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sampleCap bounds how many values a sample keeps, so a long run's
// percentiles cost bounded memory and do not inflate the heap the run
// measures.
const sampleCap = 20_000

// sample is a uniform random sample of at most sampleCap observed
// values (reservoir sampling); below the cap it holds every value.
type sample struct {
	xs  []float64
	n   int64 // values observed
	rng *rand.Rand
}

func newSample(seed int64) *sample { return &sample{rng: rand.New(rand.NewSource(seed))} }

func (s *sample) add(x float64) {
	s.n++
	if len(s.xs) < sampleCap {
		s.xs = append(s.xs, x)
	} else if j := s.rng.Int63n(s.n); j < sampleCap {
		s.xs[j] = x
	}
}

// merge folds o into s. Each is a uniform sample of its own stream; the
// concatenation is kept whole, so merging the samples of a few streams
// of similar length stays close to uniform.
func (s *sample) merge(o *sample) {
	s.xs = append(s.xs, o.xs...)
	s.n += o.n
}

// runAll runs f once per element of xs, each on its own goroutine, and
// waits for all of them.
func runAll[T any](xs []T, f func(T)) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(x)
		}()
	}
	wg.Wait()
}

// notes keeps the first few check failures one goroutine saw, for the
// report.
type notes []string

func (n *notes) add(format string, args ...any) {
	if len(*n) < 5 {
		*n = append(*n, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// readMetric reads one runtime/metrics value as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	default:
		return 0
	}
}

const (
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricAllocBytes  = "/gc/heap/allocs:bytes"
	metricGCCycles    = "/gc/cycles/total:gc-cycles"
)

// heapSampler averages the live Go heap (heap object bytes, read through
// runtime/metrics, which does not stop the world) every 10 ms while a
// label is active. Samples taken with no active label are discarded.
type heapSampler struct {
	active atomic.Int32 // index into sums, or -1
	sums   []float64
	counts []int
	stop   chan struct{}
	done   chan struct{}
}

// newHeapSampler starts a sampler with n labels, all inactive.
func newHeapSampler(n int) *heapSampler {
	h := &heapSampler{
		sums:   make([]float64, n),
		counts: make([]int, n),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	h.active.Store(-1)
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	s := []metrics.Sample{{Name: metricHeapObjects}}
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		i := h.active.Load()
		if i < 0 {
			continue
		}
		metrics.Read(s)
		h.sums[i] += float64(s[0].Value.Uint64())
		h.counts[i]++
	}
}

// set makes label i the one samples are charged to (-1: none).
func (h *heapSampler) set(i int) { h.active.Store(int32(i)) }

// close stops the sampler, waits for it, and returns the average heap of
// each label in MiB. A label that got no tick is sampled once now.
func (h *heapSampler) close() []float64 {
	close(h.stop)
	<-h.done
	out := make([]float64, len(h.sums))
	for i := range out {
		if h.counts[i] == 0 {
			out[i] = readMetric(metricHeapObjects) / (1 << 20)
			continue
		}
		out[i] = h.sums[i] / float64(h.counts[i]) / (1 << 20)
	}
	return out
}

// settleGoroutines waits up to two seconds for the goroutine count to
// fall back to base and returns the excess that remains. Runtimes with an
// event log close their collector from a GC cleanup, so it collects
// garbage while it waits.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// timeSetup runs setup setupReps times, tearing down all but the last,
// and returns the last instance with the median CPU time of a set-up, in
// seconds.
func timeSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(inst)
		}
		start := cpuSeconds()
		v, err := setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, cpuSeconds()-start)
		inst = v
	}
	return inst, median(times), nil
}

// cpuSeconds is the CPU time, user plus system, that the process's
// threads have run. The kernel leaves out time a virtual CPU spent
// descheduled by its host (steal), which on a shared machine stretches
// every wall-clock figure by whatever the neighbours are doing.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
