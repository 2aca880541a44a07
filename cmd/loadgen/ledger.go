package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// leakWindow is how long a run gives its goroutines to exit after the
// pool or front has shut down.
const leakWindow = 5 * time.Second

// ledger is the run's one pass/fail record. Each mode adds its counts to
// it, and violations alone decides whether the run failed; the package
// doc lists the conditions.
type ledger struct {
	mu sync.Mutex

	falseVerdicts int64 // sessions whose verdict their scenario does not allow
	misclassified int64 // deadline rejections of requests without a deadline
	unmatched     int64 // verdict frames that matched no pending submission

	graphMode                                       bool
	graphs                                          int64 // graphs audited
	orphans, doubleRuns, falseStates, cascadeMisses int64

	eventsDropped int64
	leaked        int // goroutines in excess of the pre-run count

	// balances are pairs of independent tallies of one quantity.
	balances []balance

	// fairTol > 0 asks tenants' completed sessions per unit of weight to
	// agree within that fraction of their mean.
	fairTol float64
	tenants []tenantReport
}

type balance struct {
	what      string
	got, want int64
}

// charge counts one violation in *n, a field of l, and prints its
// detail at once, so a failing run names every breach and not only the
// totals.
func (l *ledger) charge(n *int64, format string, args ...any) {
	l.mu.Lock()
	*n++
	l.mu.Unlock()
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
}

// equal records two tallies that must agree. Modes call it once their
// run has stopped.
func (l *ledger) equal(what string, got, want int64) {
	l.balances = append(l.balances, balance{what, got, want})
}

// violations returns one line per broken invariant; none means the run
// passed.
func (l *ledger) violations() []string {
	var out []string
	zero := func(n int64, what string) {
		if n != 0 {
			out = append(out, fmt.Sprintf("%d %s", n, what))
		}
	}
	zero(l.falseVerdicts, "false verdicts")
	zero(l.misclassified, "deadline rejections of deadline-free requests")
	zero(l.unmatched, "unmatched (possibly double-delivered) verdicts")
	if l.graphMode && l.graphs == 0 {
		out = append(out, "no graphs completed")
	}
	zero(l.orphans, "orphaned nodes")
	zero(l.doubleRuns, "double-run violations")
	zero(l.falseStates, "false node states/outputs")
	zero(l.cascadeMisses, "cascade misses")
	zero(l.eventsDropped, "dropped trace events")
	zero(int64(l.leaked), "goroutines leaked after shutdown")
	for _, b := range l.balances {
		if b.got != b.want {
			out = append(out, fmt.Sprintf("%s: %d != %d", b.what, b.got, b.want))
		}
	}
	return append(out, l.unfair()...)
}

// unfair lists the tenants whose completed sessions per unit of weight
// deviate from the mean across tenants by more than fairTol.
func (l *ledger) unfair() []string {
	if l.fairTol <= 0 || len(l.tenants) < 2 {
		return nil
	}
	mean := 0.0
	for _, t := range l.tenants {
		mean += t.NormPerShare
	}
	mean /= float64(len(l.tenants))
	var out []string
	for _, t := range l.tenants {
		if mean == 0 || math.Abs(t.NormPerShare-mean)/mean > l.fairTol {
			out = append(out, fmt.Sprintf("tenant %s completed/share %.1f deviates from mean %.1f beyond %.0f%%",
				t.Name, t.NormPerShare, mean, l.fairTol*100))
		}
	}
	return out
}

// settleLeaks waits up to window for count to fall back to before and
// returns the excess that remains. Goroutines that predate the baseline
// and exit meanwhile can take count below it; that is not a leak.
func settleLeaks(count func() int, before int, window time.Duration) int {
	end := time.Now().Add(window)
	for {
		excess := count() - before
		if excess <= 0 {
			return 0
		}
		if !time.Now().Before(end) {
			return excess
		}
		time.Sleep(10 * time.Millisecond)
	}
}
