package ppsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/testutil"
)

func TestSequentialConservesAgents(t *testing.T) {
	cfg := Small()
	p := RunSequential(cfg)
	if p.Total() != cfg.Agents {
		t.Fatalf("final census %v totals %d, want %d", p, p.Total(), cfg.Agents)
	}
}

func TestSingleSessionMatchesSequential(t *testing.T) {
	cfg := Small()
	rt := core.NewRuntime(core.WithMode(core.Full))
	var got Pop
	testutil.MustSucceed(t, rt, func(tk *core.Task) error {
		var err error
		got, err = Run(tk, cfg)
		return err
	})
	if want := RunSequential(cfg); got != want {
		t.Fatalf("parallel census %v, want %v", got, want)
	}
}

func TestGraphMatchesSequential(t *testing.T) {
	cfg := Small()
	pool := serve.New(
		serve.WithMaxSessions(4),
		serve.WithQueueDepth(16),
		serve.WithRuntime(core.WithMode(core.Full)),
	)
	defer pool.Close()
	g, check := BuildGraph(cfg)
	if g.Len() != cfg.Epochs+1 {
		t.Fatalf("graph has %d nodes, want %d epochs + census", g.Len(), cfg.Epochs+1)
	}
	res, err := g.Run(t.Context(), pool)
	if err != nil {
		t.Fatalf("graph run: %v", err)
	}
	if err := check(res); err != nil {
		t.Fatal(err)
	}
}
