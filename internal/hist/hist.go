// Package hist is the log-linear latency histogram shared by the
// metrics subsystem (internal/obs wraps Histogram into rotating
// time-bucket windows), the serving pool's latency windows, and
// cmd/loadgen's reports. It lives in its own leaf package — stdlib-only
// — so the instrumented runtime packages can reach it through
// internal/obs without importing anything that imports the runtime.
package hist

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// Histogram is a concurrency-safe log-linear latency histogram in the HDR
// style: values are bucketed by power-of-two tier with 16 linear
// sub-buckets per tier, so quantile estimates carry at most ~6% relative
// error while the whole structure is a fixed ~8KB of counters — no sample
// retention, so a load generator can feed it millions of observations.
// Quantiles are reported as the upper bound of the containing bucket
// (conservative: the true quantile is never understated by more than the
// bucket width).
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSub = 16 // linear sub-buckets per power-of-two tier
	// 61 tiers cover every int64 nanosecond value (tier 0 is the exact
	// 0..15ns range).
	histBuckets = 61 * histSub
)

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histIndex maps a nanosecond value to its bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	n := bits.Len64(v) // 2^(n-1) <= v < 2^n, n >= 5
	tier := n - 4
	sub := int(v>>(n-5)) & (histSub - 1)
	return tier*histSub + sub
}

// histUpper returns the inclusive upper bound of bucket idx, the value
// quantile estimates report.
func histUpper(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	tier := idx / histSub
	sub := idx % histSub
	return uint64(histSub+sub+1)<<(tier-1) - 1
}

// Observe records one duration (negative values clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.mu.Lock()
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(h.n)
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// Sum returns the total of all observations (0 when empty). The
// Prometheus summary exposition needs the exact running sum, which Mean
// alone (integer-divided) cannot reconstruct.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.sum)
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding the ceil(q*n)-th smallest observation; 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == int(histIndex(h.max)) {
				// Don't report past the true maximum for the top bucket.
				return time.Duration(h.max)
			}
			return time.Duration(histUpper(i))
		}
	}
	return time.Duration(h.max)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Reset clears the histogram back to empty. Concurrent Observes serialize
// against it: each lands entirely before or entirely after the reset.
// The windowed recorder (internal/obs) resets a bucket's histogram when
// its time slot is reused for a new epoch.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.counts = [histBuckets]uint64{}
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	h.mu.Unlock()
}

// Merge folds other's observations into h; other is unchanged. The
// source is snapshotted under its own lock and the destination updated
// under its — the two locks are never held together, so two goroutines
// merging histograms into each other cannot deadlock. Merge is what the
// windowed recorder and per-tenant rollups use to combine buckets into
// one quantile-readable aggregate.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h {
		return
	}
	other.mu.Lock()
	counts := other.counts
	n, sum, mn, mx := other.n, other.sum, other.min, other.max
	other.mu.Unlock()
	if n == 0 {
		return
	}
	h.mu.Lock()
	for i, c := range counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.n == 0 || mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
	h.n += n
	h.sum += sum
	h.mu.Unlock()
}

// HistSummary is the JSON-ready digest of a histogram, in milliseconds
// (the loadgen report and the BENCH serve section use it).
type HistSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary digests the histogram into count / mean / p50 / p90 / p99 / max.
func (h *Histogram) Summary() HistSummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return HistSummary{
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}

// String renders the digest for log lines.
func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
		s.Count, s.MeanMs, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs)
}
