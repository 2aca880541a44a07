package strassen

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestStrassenCloseToNaive(t *testing.T) {
	cfg := Small()
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		diff, err := maxAbsDiff(tk, cfg)
		if err != nil {
			return err
		}
		if diff > 1e-9 {
			t.Errorf("max |strassen - naive| = %g", diff)
		}
		return nil
	})
}

func TestChecksumStableAcrossModes(t *testing.T) {
	cfg := Small()
	var sums []uint64
	for _, mode := range testutil.AllModes() {
		rt := core.NewRuntime(core.WithMode(mode))
		var got uint64
		testutil.MustSucceed(t, rt, func(tk *core.Task) error {
			var err error
			got, err = Run(tk, cfg)
			return err
		})
		sums = append(sums, got)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Fatalf("checksums differ across modes: %v (Strassen dataflow must be schedule-independent)", sums)
	}
}

func TestDepthVariations(t *testing.T) {
	base := Config{N: 64, NonZeros: 2000, Seed: 7}
	var first uint64
	for i, depth := range []int{0, 1, 2, 3} {
		cfg := base
		cfg.Depth = depth
		rt := core.NewRuntime(core.WithMode(core.Full))
		var got uint64
		testutil.MustSucceed(t, rt, func(tk *core.Task) error {
			var err error
			got, err = Run(tk, cfg)
			return err
		})
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("depth=%d: checksum %x != depth=0's %x", depth, got, first)
		}
	}
}

func TestDepthZeroMatchesNaiveChecksum(t *testing.T) {
	cfg := Config{N: 32, NonZeros: 300, Depth: 0, Seed: 3}
	want := RunSequential(cfg)
	rt := core.NewRuntime(core.WithMode(core.Full))
	var got uint64
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		var err error
		got, err = Run(tk, cfg)
		return err
	})
	if got != want {
		t.Fatalf("checksum %x, want %x", got, want)
	}
}

func TestBadSizeRejected(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		for _, n := range []int{0, 4, 12, 100} {
			if _, err := Run(tk, Config{N: n, NonZeros: 1, Depth: 1}); err == nil {
				t.Errorf("N=%d accepted", n)
			}
		}
		return nil
	})
}

func TestTaskFanout(t *testing.T) {
	// Depth 2 on a 32x32 input: 7 tasks at depth 1, 49 at depth 2, plus 4
	// addition tasks per internal node.
	cfg := Config{N: 32, NonZeros: 200, Depth: 2, Seed: 1}
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		_, err := Run(tk, cfg)
		return err
	})
	tasks := rt.Stats().Tasks
	// 1 root + 7 + 49 multiplies + 4*(1+7) additions = 89
	if tasks != 89 {
		t.Fatalf("tasks = %d, want 89", tasks)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := newMat(4)
	m.set(1, 2, 5)
	if m.at(1, 2) != 5 {
		t.Fatal("at/set")
	}
	q := m.quadrant(0, 1)
	if q.n != 2 || q.at(1, 0) != 5 {
		t.Fatalf("quadrant: %v", q)
	}
	s := add(q, q)
	if s.at(1, 0) != 10 {
		t.Fatal("add")
	}
	d := sub(s, q)
	if d.at(1, 0) != 5 {
		t.Fatal("sub")
	}
	back := assemble(m.quadrant(0, 0), m.quadrant(0, 1), m.quadrant(1, 0), m.quadrant(1, 1))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if back.at(i, j) != m.at(i, j) {
				t.Fatalf("assemble mismatch at %d,%d", i, j)
			}
		}
	}
}

// maxAbsDiff multiplies with both algorithms and returns the largest
// element-wise difference, bounding the floating-point drift.
func maxAbsDiff(t *core.Task, cfg Config) (float64, error) {
	a, b := inputs(cfg)
	want := naive(a, b)
	got, err := strassen(t, a, b, cfg.Depth)
	if err != nil {
		return 0, err
	}
	var worst float64
	for i := range want.d {
		if d := math.Abs(want.d[i] - got.d[i]); d > worst {
			worst = d
		}
	}
	return worst, nil
}
