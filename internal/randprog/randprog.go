// Package randprog generates random promise programs for property-based
// testing of the detector's precision and correctness (Corollary 5.7 of
// the paper: an alarm is raised if and only if a deadlock exists).
//
// Clean programs are deadlock-free by construction. Every promise carries
// a global index; ownership of all promises starts in the root task and
// flows down the spawn tree to the promise's home task (the
// allocate-in-root-and-move pattern of the paper's Randomized and
// SmithWaterman benchmarks); and a task may only await promises whose
// index is strictly smaller than the smallest index it still owns when it
// blocks. Any hypothetical cycle t_1 → p_1 → t_2 → ... → t_1 would then
// need idx(p_1) > idx(p_2) > ... > idx(p_n) > idx(p_1), a contradiction,
// so no deadlock can form; and because the ownership graph is a tree with
// every kept promise eventually set, every await terminates.
//
// InjectCycle adds a ring of tasks owning one promise each and awaiting
// the next — a guaranteed deadlock of the requested length, embedded in
// the otherwise clean program, which Full-mode runtimes must detect.
package randprog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Config parameterizes program generation. The zero value is not valid;
// use DefaultConfig as a starting point. A Config round-trips through
// JSON (MetaJSON / ConfigFromMeta), which is how cmd/promisefuzz embeds
// the generating configuration in a recorded trace so the exact program
// can be regenerated for replay.
type Config struct {
	Seed      int64   `json:"seed"`
	Tasks     int     `json:"tasks"`      // number of tasks in the spawn tree (>= 1)
	Branch    int     `json:"branch"`     // fixed branching factor; 0 = random parents
	Promises  int     `json:"promises"`   // number of promises distributed over the tree
	MaxAwaits int     `json:"max_awaits"` // maximum random awaits per task
	AwaitProb float64 `json:"await_prob"` // probability that a task performs awaits at all
	Work      int     `json:"work"`       // busy-work iterations per task (simulated compute)
	CycleLen  int     `json:"cycle_len"`  // 0 = clean program; >= 1 injects a deadlock ring
}

// metaPrefix tags a trace meta record as a randprog fingerprint.
const metaPrefix = "randprog:"

// MetaJSON renders the configuration as a trace meta record
// ("randprog:{...}"): write it to the trace sink before the run, and the
// trace alone suffices to regenerate the program for replay.
func (c Config) MetaJSON() string {
	b, _ := json.Marshal(c) // plain struct of scalars: cannot fail
	return metaPrefix + string(b)
}

// ConfigFromMeta parses a "randprog:{...}" meta record back into a
// Config. The second result is false when s is not a randprog record.
func ConfigFromMeta(s string) (Config, bool, error) {
	rest, ok := strings.CutPrefix(s, metaPrefix)
	if !ok {
		return Config{}, false, nil
	}
	var c Config
	if err := json.Unmarshal([]byte(rest), &c); err != nil {
		return Config{}, true, fmt.Errorf("randprog: bad meta record: %w", err)
	}
	return c, true, nil
}

// DefaultConfig returns a moderate configuration resembling the paper's
// Randomized benchmark in miniature.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Tasks: 120, Promises: 240, MaxAwaits: 3, AwaitProb: 0.8, Work: 50}
}

// taskPlan is the static plan for one task in the spawn tree.
type taskPlan struct {
	parent   int
	children []int
	keeps    []int // promise indices this task fulfils
	awaits   []int // promise indices this task gets, in order
	moves    [][]int
}

// Program is a generated program, ready to run any number of times under
// any runtime mode. Runs are deterministic up to scheduling.
type Program struct {
	cfg   Config
	tasks []taskPlan
	// subtree[i] = promise indices homed in the subtree rooted at task i.
	subtree [][]int
	// ring promises/tasks for the injected cycle, if any.
	cycleLen int
}

// Generate builds a program from cfg. It panics on nonsensical
// configurations (fewer than 1 task, negative counts).
func Generate(cfg Config) *Program {
	if cfg.Tasks < 1 {
		panic("randprog: Tasks must be >= 1")
	}
	if cfg.Promises < 0 || cfg.MaxAwaits < 0 || cfg.CycleLen < 0 {
		panic("randprog: negative counts")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Program{cfg: cfg, cycleLen: cfg.CycleLen}
	p.tasks = make([]taskPlan, cfg.Tasks)
	p.tasks[0].parent = -1
	for i := 1; i < cfg.Tasks; i++ {
		parent := (i - 1) / max(cfg.Branch, 1)
		if cfg.Branch <= 0 {
			parent = rng.Intn(i)
		}
		p.tasks[i].parent = parent
		p.tasks[parent].children = append(p.tasks[parent].children, i)
	}
	// Home each promise in a uniformly random task, in index order.
	for idx := 0; idx < cfg.Promises; idx++ {
		home := rng.Intn(cfg.Tasks)
		p.tasks[home].keeps = append(p.tasks[home].keeps, idx)
	}
	// Subtree promise sets (post-order accumulation).
	p.subtree = make([][]int, cfg.Tasks)
	var collect func(i int) []int
	collect = func(i int) []int {
		out := append([]int(nil), p.tasks[i].keeps...)
		for _, c := range p.tasks[i].children {
			out = append(out, collect(c)...)
		}
		p.subtree[i] = out
		return out
	}
	collect(0)
	// Per-child move lists.
	for i := range p.tasks {
		t := &p.tasks[i]
		t.moves = make([][]int, len(t.children))
		for ci, c := range t.children {
			t.moves[ci] = p.subtree[c]
		}
	}
	// Awaits: only promises with index < min(keeps), chosen after spawning,
	// preserving the descending-index argument.
	for i := range p.tasks {
		t := &p.tasks[i]
		if rng.Float64() >= cfg.AwaitProb {
			continue
		}
		limit := cfg.Promises
		if len(t.keeps) > 0 {
			limit = t.keeps[0] // keeps are appended in index order
			for _, k := range t.keeps {
				if k < limit {
					limit = k
				}
			}
		}
		if limit == 0 {
			continue
		}
		n := rng.Intn(cfg.MaxAwaits + 1)
		for a := 0; a < n; a++ {
			t.awaits = append(t.awaits, rng.Intn(limit))
		}
	}
	return p
}

// TaskCount returns the number of tasks in the clean part of the program
// (excluding any injected ring).
func (p *Program) TaskCount() int { return len(p.tasks) }

// PromiseCount returns the number of promises in the clean part.
func (p *Program) PromiseCount() int { return p.cfg.Promises }

// HasCycle reports whether a deadlock ring is injected.
func (p *Program) HasCycle() bool { return p.cycleLen > 0 }

type movableIdx struct {
	proms []*core.Promise[int]
	idxs  []int
}

func (m movableIdx) Promises() []core.AnyPromise {
	out := make([]core.AnyPromise, len(m.idxs))
	for i, idx := range m.idxs {
		out[i] = m.proms[idx]
	}
	return out
}

// Main returns the root TaskFunc implementing the program; pass it to
// Runtime.Run. Each call builds fresh promises, so a Program can be run
// repeatedly.
func (p *Program) Main() core.TaskFunc {
	return func(root *core.Task) error {
		proms := make([]*core.Promise[int], p.cfg.Promises)
		for i := range proms {
			proms[i] = core.NewPromiseNamed[int](root, "rp-"+strconv.Itoa(i))
		}
		if p.cycleLen > 0 {
			if err := p.spawnRing(root); err != nil {
				return err
			}
		}
		return p.runTask(root, 0, proms)
	}
}

func (p *Program) runTask(t *core.Task, id int, proms []*core.Promise[int]) error {
	plan := &p.tasks[id]
	for ci, c := range plan.children {
		c := c
		mv := movableIdx{proms, plan.moves[ci]}
		if _, err := t.AsyncNamed("rt-"+strconv.Itoa(c), func(ct *core.Task) error {
			return p.runTask(ct, c, proms)
		}, mv); err != nil {
			return err
		}
	}
	for _, a := range plan.awaits {
		if _, err := proms[a].Get(t); err != nil {
			return err
		}
	}
	busyWork(p.cfg.Work)
	for _, k := range plan.keeps {
		if err := proms[k].Set(t, k); err != nil {
			return err
		}
	}
	return nil
}

// spawnRing injects the deadlock: cycleLen tasks, task i owning ring
// promise i and awaiting ring promise (i+1) mod n. With n == 1 this is a
// self-wait.
func (p *Program) spawnRing(root *core.Task) error {
	n := p.cycleLen
	ring := make([]*core.Promise[int], n)
	for i := range ring {
		ring[i] = core.NewPromiseNamed[int](root, "ring-"+strconv.Itoa(i))
	}
	for i := 0; i < n; i++ {
		i := i
		if _, err := root.AsyncNamed("ring-task-"+strconv.Itoa(i), func(c *core.Task) error {
			if _, err := ring[(i+1)%n].Get(c); err != nil {
				return err
			}
			return ring[i].Set(c, i)
		}, ring[i]); err != nil {
			return err
		}
	}
	return nil
}

// busyWork burns deterministic CPU so tasks overlap in time.
func busyWork(n int) {
	acc := uint64(2463534242)
	for i := 0; i < n; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	if acc == 42 { // never true; defeats dead-code elimination
		panic("impossible")
	}
}
