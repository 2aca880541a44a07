package main

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestLedgerViolations injects one violation per row into an otherwise
// clean ledger: each must fail the run with exactly its own line.
func TestLedgerViolations(t *testing.T) {
	// clean is a ledger whose every check is active and holds.
	clean := func() *ledger {
		l := &ledger{graphMode: true, graphs: 3, fairTol: 0.25, tenants: []tenantReport{
			{Name: "gold", NormPerShare: 100}, {Name: "bronze", NormPerShare: 110},
		}}
		l.equal("offered vs completed + rejected", 3027, 442+2585)
		return l
	}
	if v := clean().violations(); len(v) != 0 {
		t.Fatalf("clean ledger: %q", v)
	}
	cases := []struct {
		name   string
		inject func(*ledger)
		want   string
	}{
		{"orphan", func(l *ledger) { l.orphans++ }, "1 orphaned nodes"},
		{"double-run", func(l *ledger) { l.doubleRuns++ }, "1 double-run violations"},
		{"false state", func(l *ledger) { l.falseStates++ }, "1 false node states/outputs"},
		{"cascade miss", func(l *ledger) { l.cascadeMisses++ }, "1 cascade misses"},
		{"false verdict", func(l *ledger) { l.falseVerdicts++ }, "1 false verdicts"},
		{"deadline shed of a deadline-free request", func(l *ledger) { l.misclassified++ },
			"1 deadline rejections of deadline-free requests"},
		{"unmatched verdict", func(l *ledger) { l.unmatched++ }, "1 unmatched (possibly double-delivered) verdicts"},
		{"offered != completed + rejected", func(l *ledger) { l.equal("offered vs completed + rejected", 3027, 3026) },
			"offered vs completed + rejected: 3027 != 3026"},
		{"admission retries != chaos injections", func(l *ledger) { l.equal("chaos injections vs admission retries", 9654, 9653) },
			"chaos injections vs admission retries: 9654 != 9653"},
		{"registry counter != report tally", func(l *ledger) {
			l.equal("registry graph_retries_total vs node_retries", 12472, 12471)
		}, "registry graph_retries_total vs node_retries: 12472 != 12471"},
		{"leaked goroutine", func(l *ledger) { l.leaked = 1 }, "1 goroutines leaked after shutdown"},
		{"dropped event", func(l *ledger) { l.eventsDropped = 1 }, "1 dropped trace events"},
		{"fairness breach", func(l *ledger) {
			l.tenants = []tenantReport{{Name: "a", NormPerShare: 100}, {Name: "b", NormPerShare: 100}, {Name: "c", NormPerShare: 160}}
		}, "tenant c completed/share 160.0 deviates from mean 120.0 beyond 25%"},
		{"no graph completed", func(l *ledger) { l.graphs = 0 }, "no graphs completed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := clean()
			tc.inject(l)
			v := l.violations()
			if len(v) != 1 || v[0] != tc.want {
				t.Fatalf("violations = %q, want exactly [%q]", v, tc.want)
			}
		})
	}
}

// fakeSession is a finished session with a fixed outcome.
type fakeSession struct {
	verdict serve.Verdict
	err     error
}

func (s fakeSession) Verdict() serve.Verdict  { return s.verdict }
func (s fakeSession) Err() error              { return s.err }
func (s fakeSession) Duration() time.Duration { return time.Millisecond }

// TestRecordVerdictRule pins which verdicts are false: canceled is
// legitimate only under a deadline, or under chaos with an ErrPoolClosed
// cause (a connection lost after accept).
func TestRecordVerdictRule(t *testing.T) {
	workload := scenario{name: "QSort", want: serve.VerdictClean}
	lookalike := errors.New(serve.ErrPoolClosed.Error()) // same text, not the sentinel
	cases := []struct {
		name  string
		sc    scenario
		dl    time.Duration
		chaos bool
		sess  fakeSession
		false bool
	}{
		{"clean workload", workload, 0, false, fakeSession{serve.VerdictClean, nil}, false},
		{"detected Listing 1", injected, 0, false, fakeSession{serve.VerdictDeadlock, nil}, false},
		{"deadline won", workload, time.Millisecond, false, fakeSession{serve.VerdictCanceled, nil}, false},
		{"canceled without deadline", workload, 0, false, fakeSession{serve.VerdictCanceled, nil}, true},
		{"connection lost under chaos", workload, 0, true, fakeSession{serve.VerdictCanceled, serve.ErrPoolClosed}, false},
		{"other cancel under chaos", workload, 0, true, fakeSession{serve.VerdictCanceled, lookalike}, true},
		{"connection lost without chaos", workload, 0, false, fakeSession{serve.VerdictCanceled, serve.ErrPoolClosed}, true},
		{"workload alarmed", workload, 0, false, fakeSession{serve.VerdictDeadlock, nil}, true},
		{"missed deadlock", injected, 0, false, fakeSession{serve.VerdictClean, nil}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := &ledger{}
			s := newSessionStats(&mix{scenarios: []scenario{workload}, inject: 0.5}, tc.chaos, led)
			s.record(tc.sc, tc.dl, tc.sess, true)
			if got := led.falseVerdicts == 1; got != tc.false || s.by[tc.sc.name].bad != led.falseVerdicts {
				t.Fatalf("ledger false verdicts %d, scenario bad %d; want false=%v",
					led.falseVerdicts, s.by[tc.sc.name].bad, tc.false)
			}
		})
	}
}

// TestRecordConcurrent books sessions from several goroutines at once,
// as the closed and open loops do.
func TestRecordConcurrent(t *testing.T) {
	led := &ledger{}
	workload := scenario{name: "QSort", want: serve.VerdictClean}
	s := newSessionStats(&mix{scenarios: []scenario{workload}}, false, led)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := serve.VerdictClean
				if i == 0 {
					v = serve.VerdictDeadlock
				}
				s.record(workload, 0, fakeSession{verdict: v}, true)
			}
		}()
	}
	wg.Wait()
	if st := s.by["QSort"]; st.count != 200 || st.bad != 4 || led.falseVerdicts != 4 || s.total.Summary().Count != 200 {
		t.Fatalf("count %d bad %d ledger %d samples %d, want 200/4/4/200",
			st.count, st.bad, led.falseVerdicts, s.total.Summary().Count)
	}
}

func TestSettleLeaksCountsOnlyExcess(t *testing.T) {
	// A read below the baseline (goroutines that predate it exited) is
	// no leak, not a negative one.
	if got := settleLeaks(func() int { return 2 }, 5, 0); got != 0 {
		t.Fatalf("below baseline: %d leaked, want 0", got)
	}
	// Goroutines that drain within the window are no leak either.
	n := 9
	if got := settleLeaks(func() int { n--; return n }, 5, time.Second); got != 0 {
		t.Fatalf("draining: %d leaked, want 0", got)
	}
	// An excess that outlives the window is the leak.
	start := time.Now()
	if got := settleLeaks(func() int { return 7 }, 5, 30*time.Millisecond); got != 2 {
		t.Fatalf("stuck: %d leaked, want 2", got)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("gave up after %v, before the window", waited)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"QSort:0", "QSort:x", "QSort:-1", "Nope", "QSort,Nope:2", "", ":3"} {
		if _, err := parseMix(spec, 0); err == nil {
			t.Errorf("parseMix(%q) accepted", spec)
		}
	}
	for _, spec := range []string{"-5ms", "5ms:0", "soon", "5ms:1,-1s:2", ","} {
		if _, err := parseDeadlines(spec); err == nil {
			t.Errorf("parseDeadlines(%q) accepted", spec)
		}
	}
	for _, spec := range []string{"gold:3,gold:1", ":2", "gold:-1", "gold:x", ""} {
		if _, err := parseTenants(spec); err == nil {
			t.Errorf("parseTenants(%q) accepted", spec)
		}
	}

	mix, err := parseMix("QSort:3, Deadlock", 0)
	if err != nil || len(mix) != 2 || mix[0].weight != 3 || mix[1].weight != 1 || mix[1].want != serve.VerdictDeadlock {
		t.Fatalf("parseMix = %+v, %v", mix, err)
	}
	dls, err := parseDeadlines("5ms:1,none:9")
	if err != nil || len(dls) != 2 || dls[0] != (deadlineClass{5 * time.Millisecond, 1}) || dls[1] != (deadlineClass{0, 9}) {
		t.Fatalf("parseDeadlines = %+v, %v", dls, err)
	}
	tenants, err := parseTenants("gold:3,bronze")
	if err != nil || len(tenants) != 2 || tenants[0] != (weighted{"gold", 3}) || tenants[1] != (weighted{"bronze", 1}) {
		t.Fatalf("parseTenants = %+v, %v", tenants, err)
	}
}

// TestParseConfigScale: a misspelled -scale is a usage error, not a
// silent default-scale run.
func TestParseConfigScale(t *testing.T) {
	for _, s := range []string{"Small", "tiny", "", "DEFAULT"} {
		if _, err := parseConfig([]string{"-scale", s}); err == nil {
			t.Errorf("-scale %q accepted", s)
		}
		if _, err := parseConfig([]string{"-open", "10", "-scale", s}); err == nil {
			t.Errorf("-open -scale %q accepted", s)
		}
	}
	for _, s := range []string{"small", "default", "paper"} {
		if _, err := parseConfig([]string{"-scale", s}); err != nil {
			t.Errorf("-scale %q: %v", s, err)
		}
	}
}

// TestRateAtAveragesToBase checks rateAt's documented property: every
// shape averages to the base rate over one period.
func TestRateAtAveragesToBase(t *testing.T) {
	const base, steps = 600.0, 1000
	period := 2 * time.Second
	for _, shape := range []string{"steady", "bursty", "diurnal"} {
		sum := 0.0
		for i := 0; i < steps; i++ {
			sum += rateAt(base, shape, period, 3*period+time.Duration(i)*period/steps)
		}
		if mean := sum / steps; math.Abs(mean-base) > 1e-9*base {
			t.Errorf("%s: mean rate %v over one period, want %v", shape, mean, base)
		}
	}
}

// TestMixDraw checks the one weighted draw both loops use: weights
// hold, and -inject swaps in the Deadlock scenario.
func TestMixDraw(t *testing.T) {
	m := &mix{
		scenarios: []scenario{{name: "QSort", weight: 3}, {name: "Sieve", weight: 1}},
		deadlines: []deadlineClass{{d: time.Millisecond, weight: 1}, {weight: 1}},
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	deadlined := 0
	for i := 0; i < 4000; i++ {
		sc, dl := m.draw(rng)
		counts[sc.name]++
		if dl > 0 {
			deadlined++
		}
	}
	if q := counts["QSort"]; q < 2800 || q > 3200 || counts["QSort"]+counts["Sieve"] != 4000 {
		t.Errorf("draws %v, want about 3000 QSort of 4000", counts)
	}
	if deadlined < 1800 || deadlined > 2200 {
		t.Errorf("%d of 4000 draws deadlined, want about 2000", deadlined)
	}
	m.inject = 1
	if sc, _ := m.draw(rng); sc.name != injected.name {
		t.Errorf("inject=1 drew %q", sc.name)
	}
}
