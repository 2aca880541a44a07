package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// epoch is the origin of Now: a monotonic clock reading taken once, at
// package initialization.
var epoch = time.Now()

// Now is the monotonic clock the serving stack stamps with: nanoseconds
// since a fixed origin in this process. Two stamps subtract to a
// time.Duration exactly as time.Time.Sub would, and a stamp costs one
// monotonic clock read — time.Since on a monotonic reading never reads
// the wall clock, so it is cheaper than time.Now. Stamps are meaningful
// only within one process.
func Now() int64 { return int64(time.Since(epoch)) }

// Window is a windowed latency recorder: a ring of hist.Histogram
// buckets, each covering one fixed time slice of the monotonic clock
// Now. An observation lands in the bucket owning the slice of the stamp
// its caller passes, so Observe reads no clock of its own; reads merge
// every bucket still inside the window into a scratch histogram and
// answer from that. Quantile(0.99) is therefore the p99 of roughly the
// last Span() of traffic — the signal admission control needs — rather
// than the lifetime p99, which converges and stops responding to load
// shifts.
//
// Observe is lock-free on the rotation check (one atomic epoch load; the
// bucket's rotation lock only on the first observations of a new slice)
// plus the histogram's own mutex-guarded bucket increment. Reads are
// control-plane: they read the clock, allocate a scratch histogram and
// take each bucket's lock briefly via Merge.
type Window struct {
	bucketNs int64
	buckets  []windowBucket
}

type windowBucket struct {
	rotate sync.Mutex   // serializes the reset that hands the bucket to a new slice
	epoch  atomic.Int64 // the slice index this bucket currently holds
	h      *hist.Histogram
}

// Default window geometry: 15 buckets of 2s cover the last ~30s, fine
// enough that a load shift moves the quantiles within a couple of
// seconds, long enough that a CI-scale run (5–10s) is fully in window.
const (
	defaultWindowSpan    = 30 * time.Second
	defaultWindowBuckets = 15
)

// NewWindow creates a recorder covering the last span of observations in
// `buckets` rotating slices. span/buckets values of 0 (or negatives)
// select the defaults. The observable window is (span-slice, span]: the
// oldest in-window slice is complete, the newest is still filling.
func NewWindow(span time.Duration, buckets int) *Window {
	if span <= 0 {
		span = defaultWindowSpan
	}
	if buckets <= 0 {
		buckets = defaultWindowBuckets
	}
	w := &Window{
		bucketNs: int64(span) / int64(buckets),
		buckets:  make([]windowBucket, buckets),
	}
	if w.bucketNs <= 0 {
		w.bucketNs = 1
	}
	for i := range w.buckets {
		w.buckets[i].h = hist.NewHistogram()
		w.buckets[i].epoch.Store(-1) // never observed
	}
	return w
}

// Span returns the window's nominal coverage.
func (w *Window) Span() time.Duration {
	return time.Duration(w.bucketNs * int64(len(w.buckets)))
}

// Observe records one duration into the bucket of the slice holding now,
// a stamp from Now the caller already holds (typically the end of the
// interval d measures), resetting the bucket first if its slice has
// rotated out.
func (w *Window) Observe(now int64, d time.Duration) {
	epoch := now / w.bucketNs
	b := &w.buckets[int(epoch%int64(len(w.buckets)))]
	if b.epoch.Load() < epoch {
		// First observation of this slice: reset the stale contents, then
		// publish the new epoch. An observer that loads the new epoch
		// therefore records after the reset, and one that loads an older
		// epoch waits here for it, so no sample of the new slice is
		// wiped. An observer whose stamp precedes the bucket's epoch (it
		// was descheduled across the rotation) records into the bucket as
		// it stands and never moves the epoch back.
		b.rotate.Lock()
		if b.epoch.Load() < epoch {
			b.h.Reset()
			b.epoch.Store(epoch)
		}
		b.rotate.Unlock()
	}
	b.h.Observe(d)
}

// merged folds every in-window bucket into a fresh scratch histogram.
func (w *Window) merged() *hist.Histogram {
	cur := Now() / w.bucketNs
	oldest := cur - int64(len(w.buckets)) + 1
	out := hist.NewHistogram()
	for i := range w.buckets {
		b := &w.buckets[i]
		if e := b.epoch.Load(); e >= oldest && e <= cur {
			out.Merge(b.h)
		}
	}
	return out
}

// Quantile returns the q-quantile of the observations inside the window
// (0 when the window is empty).
func (w *Window) Quantile(q float64) time.Duration {
	return w.merged().Quantile(q)
}

// Count returns the number of observations inside the window.
func (w *Window) Count() int64 {
	return w.merged().Count()
}

// Summary digests the in-window observations (count, mean, p50/p90/p99,
// max, in milliseconds).
func (w *Window) Summary() hist.HistSummary {
	return w.merged().Summary()
}
