package ppg

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func TestSequentialIsFiniteAndMoves(t *testing.T) {
	cfg := Small()
	z := RunSequential(cfg)
	moved := false
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("iterate diverged: %v", z)
		}
		if v != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("iterate never left the origin")
	}
}

func TestSingleSessionMatchesSequential(t *testing.T) {
	cfg := Small()
	rt := core.NewRuntime(core.WithMode(core.Full))
	var got []float64
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		var err error
		got, err = Run(tk, cfg)
		return err
	})
	sameBits(t, "single session", got, RunSequential(cfg))
}

func TestGraphMatchesSequential(t *testing.T) {
	cfg := Small()
	pool := serve.NewPool(serve.Config{
		MaxSessions: 6,
		QueueDepth:  32,
		Runtime:     []core.Option{core.WithMode(core.Full)},
	})
	defer pool.Close()
	g, check := BuildGraph(cfg)
	if want := cfg.Iters * (cfg.Blocks + 1); g.Len() != want {
		t.Fatalf("graph has %d nodes, want %d (Blocks+1 per round)", g.Len(), want)
	}
	res, err := g.Run(t.Context(), pool)
	if err != nil {
		t.Fatalf("graph run: %v", err)
	}
	if err := check(res); err != nil {
		t.Fatal(err)
	}
}

// goldenSmall and goldenDefault are the math.Float64bits of
// RunSequential(Small()) and RunSequential(Default()) as first recorded.
// A change to the generator, a seed or the draw order fails here.
var (
	goldenSmall = []uint64{
		0xbf52e9376cb258c9, 0x3f42f3696df9aa51, 0xbf6a292347b5dc44, 0x3f52df93c47f4fc1,
		0xbf5bb8dad085ce60, 0x3f39712f1f7b759a, 0xbf5286f5f2719917, 0xbf5a9cbfcb3ae6fe,
		0xbf51c4f688b55bbe, 0x3f26155da934ac1f, 0xbf0b138f1dda1d18, 0xbf540ef14d5b618e,
		0x3f36babc8a34853c, 0x3efc67858b83c52b, 0xbf21af8b4ed321d6, 0x3f6651cc24245de2,
	}
	goldenDefault = []uint64{
		0xbf7e221def711a64, 0xbf7d947694acf8fd, 0x3f9a019dc9c26d91, 0x3f8f9161c3d0c67f,
		0x3f8c0b19404e0772, 0xbf960e84d505c586, 0xbf27f1a945c80132, 0x3f68a5c5b9edf58e,
		0xbf65006eab916363, 0xbf63f77b2c0d39cc, 0x3f6c1f608b9d0475, 0x3f5935e7e24487a6,
		0x3f792af777a19474, 0xbf8cc0f04763bb0e, 0xbf6c63dc2f548b13, 0x3f78d673d54f6b1f,
		0x3f84cacce2de2b99, 0x3f8bd3b70bbac0a1, 0x3f559f68c0c58135, 0x3f5086144e9a00f6,
		0x3f638b630439bada, 0xbf82326d56092fd8, 0xbf8d5b3d2b039ac3, 0xbf7d022b3a9c53c5,
		0x3f7091b45ef46055, 0x3f79c9a0eef4fe27, 0x3f429c68b2cb49dd, 0x3f8153ca1d5239bc,
		0x3f5e8b48329b848c, 0x3f6acaa018747a22, 0x3f83789a0bc61499, 0xbf24c133b522531e,
		0x3f718fc4d4e758f5, 0xbf8ef50e0d74d051, 0xbf3c8d6d62ce1e5e, 0x3f801a1647c4e61f,
		0x3f62c16db1e14deb, 0x3f85c932d616d96d, 0xbf91ea566974c749, 0xbf555eba47f4b317,
		0xbf86e84f1a0313de, 0xbf6661c06ef5951d, 0x3f5deddfd06eae81, 0x3f885842a1ac3240,
		0x3f84e066f5e3cc82, 0xbf88632f12122c4b, 0xbf8bf10391616680, 0xbf91dea5066d4da2,
		0xbf84b0bd81dd4989, 0xbf85dab4c2a9a6d4, 0xbf444ad5e697615a, 0xbf41f4b7739c313b,
		0x3f71eb4497348224, 0xbf6175f4640a8efb, 0x3f720c51ab8bd546, 0xbf543ff3e759d63a,
		0xbf83f49f5beae0df, 0x3f8314c5ce09964c, 0xbf85552afc5349d9, 0xbf49bb607e2c99c3,
		0x3fa2309092f0c669, 0xbf81b9d973ec86b9, 0xbf8221f7bdd71bfc, 0x3f74d0271cefb2c8,
	}
)

func TestSequentialGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []uint64
	}{{"Small", Small(), goldenSmall}, {"Default", Default(), goldenDefault}} {
		got := RunSequential(tc.cfg)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: iterate length %d, want %d", tc.name, len(got), len(tc.want))
		}
		for j, v := range got {
			if bits := math.Float64bits(v); bits != tc.want[j] {
				t.Fatalf("%s: iterate[%d] bits %#016x, want %#016x", tc.name, j, bits, tc.want[j])
			}
		}
	}
}

// countBuilds wraps the block builder for the rest of the test: it
// counts the calls and keeps the blocks the last call returned.
func countBuilds(t *testing.T) (calls *atomic.Int64, last *[]block) {
	calls, last = new(atomic.Int64), new([]block)
	t.Cleanup(func() { newBlocks = buildBlocks })
	newBlocks = func(cfg Config) []block {
		calls.Add(1)
		*last = buildBlocks(cfg)
		return *last
	}
	return calls, last
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: iterate length %d, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: iterate[%d] = %v, want %v (not bitwise identical)", what, j, got[j], want[j])
		}
	}
}

// TestGraphBuildsBlocksOnce pins one block build per BuildGraph call and
// none in any node body or in the check. Graph.Run runs a graph once, so
// two graphs over one block set run at the same time stand for running a
// graph twice: both must match the reference built from fresh blocks,
// which they would not if a node wrote its block.
func TestGraphBuildsBlocksOnce(t *testing.T) {
	cfg := Small()
	want := RunSequential(cfg)
	pool := serve.NewPool(serve.Config{
		MaxSessions: 6,
		QueueDepth:  64,
		Runtime:     []core.Option{core.WithMode(core.Full)},
	})
	defer pool.Close()
	calls, last := countBuilds(t)

	g, check := BuildGraph(cfg)
	if n := calls.Load(); n != 1 {
		t.Fatalf("BuildGraph built the blocks %d times, want 1", n)
	}
	twin, _ := buildGraph(cfg, *last)
	results := make([]*graph.GraphResult, 2)
	var wg sync.WaitGroup
	for i, gr := range []*graph.Graph{g, twin} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if results[i], err = gr.Run(t.Context(), pool); err != nil {
				t.Errorf("graph run %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := check(results[0]); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		out, _ := res.Output(redName(cfg.Iters - 1))
		got, _ := out.([]float64)
		sameBits(t, fmt.Sprintf("graph run %d", i), got, want)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("running the graphs and the check built the blocks %d more times, want 0", n-1)
	}
}

// TestMainBuildsBlocksOnce pins one block build per Main call and none
// in its TaskFunc, which runs twice over the same blocks. The blocks
// Main kept must still give the reference bitwise afterwards, and
// RunSequential and Run build once per call.
func TestMainBuildsBlocksOnce(t *testing.T) {
	cfg := Small()
	want := RunSequential(cfg)
	calls, last := countBuilds(t)

	prog := Main(cfg)
	if n := calls.Load(); n != 1 {
		t.Fatalf("Main built the blocks %d times, want 1", n)
	}
	kept := *last
	for i := 0; i < 2; i++ {
		testutil.MustSucceed(t, core.NewRuntime(core.WithMode(core.Full)), prog)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("two runs of Main's TaskFunc built the blocks %d more times, want 0", n-1)
	}
	var got []float64
	testutil.MustSucceed(t, core.NewRuntime(core.WithMode(core.Full)), func(tk *core.Task) error {
		var err error
		got, err = run(tk, cfg, kept)
		return err
	})
	sameBits(t, "Main's blocks after two runs", got, want)

	calls.Store(0)
	RunSequential(cfg)
	testutil.MustSucceed(t, core.NewRuntime(core.WithMode(core.Full)), func(tk *core.Task) error {
		_, err := Run(tk, cfg)
		return err
	})
	if n := calls.Load(); n != 2 {
		t.Fatalf("one RunSequential and one Run built the blocks %d times, want 2", n)
	}
}

// TestRunNamesEachRoundsBlocks pins the single-session form's names:
// round k's promise and task for block b are both "block-<k>-<b>", built
// with the blocks rather than per round.
func TestRunNamesEachRoundsBlocks(t *testing.T) {
	cfg := Small()
	mem := trace.NewMemSink(0)
	rt := core.NewRuntime(core.TraceTo(mem))
	testutil.MustSucceed(t, rt, Main(cfg))
	promises, tasks := map[string]bool{}, map[string]bool{}
	for _, e := range mem.Snapshot() {
		promises[e.PromiseLabel], tasks[e.TaskName] = true, true
	}
	for k := 0; k < cfg.Iters; k++ {
		for b := 0; b < cfg.Blocks; b++ {
			name := fmt.Sprintf("block-%d-%d", k, b)
			if !promises[name] || !tasks[name] {
				t.Fatalf("event log names no promise and task %q", name)
			}
		}
	}
}
