// Package conway parallelizes Conway's Game of Life by dividing the grid
// into horizontal bands, one worker task per band (benchmark 1 of the
// paper). Neighboring workers exchange band borders each generation
// through collections.Channel — the paper's Listing 4 class — in place of
// the MPI primitives of the original C code.
package conway

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config sizes the simulation.
type Config struct {
	Width       int
	Height      int
	Workers     int
	Generations int
	Seed        int64
}

// Small is the test-sized configuration.
func Small() Config { return Config{Width: 64, Height: 48, Workers: 4, Generations: 10, Seed: 1} }

// Default is the benchmark configuration sized for seconds-scale runs.
func Default() Config {
	return Config{Width: 512, Height: 512, Workers: 8, Generations: 120, Seed: 1}
}

// Paper approximates the paper's setup: 100 worker tasks (101 tasks total
// with the root).
func Paper() Config {
	return Config{Width: 1024, Height: 1000, Workers: 100, Generations: 200, Seed: 1}
}

type row = []byte

// randomBoard builds the deterministic initial board.
func randomBoard(cfg Config) []row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := make([]row, cfg.Height)
	for y := range b {
		b[y] = make(row, cfg.Width)
		for x := range b[y] {
			if rng.Intn(4) == 0 {
				b[y][x] = 1
			}
		}
	}
	return b
}

// step computes one Life generation for rows [1, len(band)-2] of band,
// where band includes ghost rows at indices 0 and len(band)-1.
func step(band []row, width int, out []row) {
	for y := 1; y < len(band)-1; y++ {
		for x := 0; x < width; x++ {
			n := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dy == 0 && dx == 0 {
						continue
					}
					xx := x + dx
					if xx < 0 || xx >= width {
						continue
					}
					n += int(band[y+dy][xx])
				}
			}
			alive := band[y][x] == 1
			switch {
			case alive && (n == 2 || n == 3):
				out[y-1][x] = 1
			case !alive && n == 3:
				out[y-1][x] = 1
			default:
				out[y-1][x] = 0
			}
		}
	}
}

// checksum hashes a board.
func checksum(b []row) uint64 {
	h := fnv.New64a()
	for _, r := range b {
		h.Write(r)
	}
	return h.Sum64()
}

// RunSequential computes the reference result single-threaded.
func RunSequential(cfg Config) uint64 {
	board := randomBoard(cfg)
	next := make([]row, cfg.Height)
	for y := range next {
		next[y] = make(row, cfg.Width)
	}
	zero := make(row, cfg.Width)
	for g := 0; g < cfg.Generations; g++ {
		band := make([]row, cfg.Height+2)
		band[0] = zero
		band[cfg.Height+1] = zero
		copy(band[1:], board)
		step(band, cfg.Width, next)
		board, next = next, board
	}
	return checksum(board)
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare validates cfg and builds the initial board, then returns a
// one-shot body that runs the promise-parallel simulation under its task
// and returns the final board checksum. Each worker owns the sending ends
// of its two border channels (moved at spawn) plus a result promise;
// omitted sends or a mis-wired exchange would be reported by the
// ownership policy.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	if cfg.Workers < 1 || cfg.Height < cfg.Workers {
		return nil, fmt.Errorf("conway: bad config %+v", cfg)
	}
	board := randomBoard(cfg)
	return func(t *core.Task) (uint64, error) {
		// down[i] carries rows from worker i to worker i+1; up[i] the reverse.
		down := make([]*collections.Channel[row], cfg.Workers-1)
		up := make([]*collections.Channel[row], cfg.Workers-1)
		for i := range down {
			down[i] = collections.NewChannelNamed[row](t, fmt.Sprintf("down-%d", i))
			up[i] = collections.NewChannelNamed[row](t, fmt.Sprintf("up-%d", i))
		}
		results := make([]*core.Promise[[]row], cfg.Workers)
		for i := range results {
			results[i] = core.NewPromiseNamed[[]row](t, fmt.Sprintf("band-%d", i))
		}

		rowsPer := cfg.Height / cfg.Workers
		for w := 0; w < cfg.Workers; w++ {
			w := w
			lo := w * rowsPer
			hi := lo + rowsPer
			if w == cfg.Workers-1 {
				hi = cfg.Height
			}
			mine := make([]row, hi-lo)
			for i := range mine {
				mine[i] = append(row(nil), board[lo+i]...)
			}
			moved := core.Group{results[w]}
			if w > 0 {
				moved = append(moved, up[w-1]) // I send upward on up[w-1]
			}
			if w < cfg.Workers-1 {
				moved = append(moved, down[w]) // I send downward on down[w]
			}
			if _, err := t.AsyncNamed(fmt.Sprintf("conway-%d", w), func(c *core.Task) error {
				band := mine
				next := make([]row, len(band))
				for i := range next {
					next[i] = make(row, cfg.Width)
				}
				zero := make(row, cfg.Width)
				for g := 0; g < cfg.Generations; g++ {
					// Exchange borders with neighbors.
					if w > 0 {
						if err := up[w-1].Send(c, band[0]); err != nil {
							return err
						}
					}
					if w < cfg.Workers-1 {
						if err := down[w].Send(c, band[len(band)-1]); err != nil {
							return err
						}
					}
					top, bot := zero, zero
					if w > 0 {
						v, ok, err := down[w-1].Recv(c)
						if err != nil || !ok {
							return fmt.Errorf("conway-%d gen %d: recv above: ok=%v err=%w", w, g, ok, err)
						}
						top = v
					}
					if w < cfg.Workers-1 {
						v, ok, err := up[w].Recv(c)
						if err != nil || !ok {
							return fmt.Errorf("conway-%d gen %d: recv below: ok=%v err=%w", w, g, ok, err)
						}
						bot = v
					}
					ghost := make([]row, 0, len(band)+2)
					ghost = append(ghost, top)
					ghost = append(ghost, band...)
					ghost = append(ghost, bot)
					step(ghost, cfg.Width, next)
					band, next = next, band
					// The rows we sent are snapshots about to be overwritten:
					// copy-on-send semantics via fresh next buffers each swap.
					for i := range next {
						next[i] = make(row, cfg.Width)
					}
				}
				// Discharge channel ownership, then publish the band.
				if w > 0 {
					if err := up[w-1].Close(c); err != nil {
						return err
					}
				}
				if w < cfg.Workers-1 {
					if err := down[w].Close(c); err != nil {
						return err
					}
				}
				return results[w].Set(c, band)
			}, moved); err != nil {
				return 0, err
			}
		}

		final := make([]row, 0, cfg.Height)
		for w := 0; w < cfg.Workers; w++ {
			band, err := results[w].Get(t)
			if err != nil {
				return 0, err
			}
			final = append(final, band...)
		}
		// Drain the neighbors' closing messages so the channels are fully
		// consumed (the close payloads have no owner obligations, but this
		// keeps the chain garbage).
		return checksum(final), nil
	}, nil
}
