package smithwaterman

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func TestParallelMatchesSequentialAllModes(t *testing.T) {
	cfg := Small()
	want := RunSequential(cfg)
	for _, mode := range testutil.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rt := core.NewRuntime(core.WithMode(mode))
			var got uint64
			testutil.MustSucceed(t, rt, func(tk *core.Task) error {
				var err error
				got, err = Run(tk, cfg)
				return err
			})
			if got != want {
				t.Fatalf("score %d, want %d", got, want)
			}
		})
	}
}

func TestTileSizeVariations(t *testing.T) {
	base := Config{LenA: 120, LenB: 133, Seed: 5}
	want := RunSequential(base)
	for _, tile := range []int{1, 7, 25, 64, 200} {
		cfg := base
		cfg.Tile = tile
		rt := core.NewRuntime(core.WithMode(core.Full))
		var got uint64
		testutil.MustSucceed(t, rt, func(tk *core.Task) error {
			var err error
			got, err = Run(tk, cfg)
			return err
		})
		if got != want {
			t.Fatalf("tile=%d: score %d, want %d", tile, got, want)
		}
	}
}

func TestIdenticalSequencesScorePerfectly(t *testing.T) {
	// Aligning a sequence with itself must score len * matchScore.
	a := []byte("ACGTACGTGGCA")
	prev := make([]int32, len(a)+1)
	cur := make([]int32, len(a)+1)
	var best int32
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(a); j++ {
			v := prev[j-1] + score(a[i-1], a[j-1])
			if up := prev[j] + gapScore; up > v {
				v = up
			}
			if lf := cur[j-1] + gapScore; lf > v {
				v = lf
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	if best != int32(len(a)*matchScore) {
		t.Fatalf("self-alignment best = %d, want %d", best, len(a)*matchScore)
	}
}

func TestScoreFunction(t *testing.T) {
	if score('A', 'A') != matchScore {
		t.Fatal("match")
	}
	if score('A', 'C') != mismatchScore {
		t.Fatal("mismatch")
	}
}

func TestBadTileRejected(t *testing.T) {
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		if _, err := Run(tk, Config{LenA: 10, LenB: 10, Tile: 0}); err == nil {
			t.Error("tile=0 accepted")
		}
		return nil
	})
}

func TestTaskPerTile(t *testing.T) {
	cfg := Config{LenA: 100, LenB: 100, Tile: 25, Seed: 1}
	rt := core.NewRuntime(core.WithMode(core.Full))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		_, err := Run(tk, cfg)
		return err
	})
	if got := rt.Stats().Tasks; got != 17 { // 4x4 tiles + root
		t.Fatalf("tasks = %d, want 17", got)
	}
}

func TestRootOwnedListSurvivesMassMovement(t *testing.T) {
	// The root allocates every tile promise and moves all of them; its
	// owned list must not raise a spurious omitted set.
	cfg := Config{LenA: 200, LenB: 200, Tile: 10, Seed: 2}
	rt := core.NewRuntime(core.WithMode(core.Ownership))
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		_, err := Run(tk, cfg)
		return err
	})
}
