// Package heat simulates diffusion on a one-dimensional surface
// (benchmark 2 of the paper): the rod is split into chunks, one task per
// chunk, and neighboring tasks exchange boundary cells each iteration
// through collections.Channel in place of MPI primitives. The paper's
// configuration is 50 tasks over chunks of 40,000 cells for 5,000
// iterations.
package heat

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config sizes the simulation.
type Config struct {
	CellsPerTask int
	Tasks        int
	Iterations   int
}

// Small is the test-sized configuration.
func Small() Config { return Config{CellsPerTask: 100, Tasks: 4, Iterations: 50} }

// Default is the benchmark configuration sized for seconds-scale runs.
func Default() Config { return Config{CellsPerTask: 8000, Tasks: 16, Iterations: 400} }

// Paper is the paper's configuration: 50 tasks x 40,000 cells x 5,000
// iterations.
func Paper() Config { return Config{CellsPerTask: 40000, Tasks: 50, Iterations: 5000} }

const alpha = 0.25 // diffusion coefficient

// initialCell gives the deterministic initial temperature of global cell i.
func initialCell(i, total int) float64 {
	x := float64(i) / float64(total)
	return 100 * math.Sin(3*math.Pi*x) * math.Sin(3*math.Pi*x)
}

// diffuse computes one explicit-Euler step over the interior of chunk,
// with ghost cells at chunk[0] and chunk[len-1].
func diffuse(chunk, next []float64) {
	for i := 1; i < len(chunk)-1; i++ {
		next[i-1] = chunk[i] + alpha*(chunk[i-1]-2*chunk[i]+chunk[i+1])
	}
}

func checksum(cells []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range cells {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			buf[b] = byte(bits >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// RunSequential computes the reference result single-threaded, using the
// same per-chunk traversal order as the parallel version so the floating
// point results are bitwise identical.
func RunSequential(cfg Config) uint64 {
	total := cfg.CellsPerTask * cfg.Tasks
	cells := make([]float64, total)
	for i := range cells {
		cells[i] = initialCell(i, total)
	}
	next := make([]float64, total)
	for it := 0; it < cfg.Iterations; it++ {
		ghost := make([]float64, total+2)
		copy(ghost[1:], cells) // boundary cells are fixed at 0
		diffuse(ghost, next)
		cells, next = next, cells
	}
	return checksum(cells)
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare validates cfg and builds the initial rod, then returns a
// one-shot body that runs the promise-parallel simulation under its task
// and returns the checksum of the final rod.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	if cfg.Tasks < 1 {
		return nil, fmt.Errorf("heat: bad config %+v", cfg)
	}
	total := cfg.CellsPerTask * cfg.Tasks
	cells := make([]float64, total)
	for i := range cells {
		cells[i] = initialCell(i, total)
	}
	return func(t *core.Task) (uint64, error) {
		right := make([]*collections.Channel[float64], cfg.Tasks-1) // i -> i+1
		left := make([]*collections.Channel[float64], cfg.Tasks-1)  // i+1 -> i
		for i := range right {
			right[i] = collections.NewChannelNamed[float64](t, fmt.Sprintf("right-%d", i))
			left[i] = collections.NewChannelNamed[float64](t, fmt.Sprintf("left-%d", i))
		}
		results := make([]*core.Promise[[]float64], cfg.Tasks)
		for i := range results {
			results[i] = core.NewPromiseNamed[[]float64](t, fmt.Sprintf("chunk-%d", i))
		}

		for w := 0; w < cfg.Tasks; w++ {
			w := w
			mine := cells[w*cfg.CellsPerTask : (w+1)*cfg.CellsPerTask]
			moved := core.Group{results[w]}
			if w > 0 {
				moved = append(moved, left[w-1])
			}
			if w < cfg.Tasks-1 {
				moved = append(moved, right[w])
			}
			if _, err := t.AsyncNamed(fmt.Sprintf("heat-%d", w), func(c *core.Task) error {
				chunk := mine
				next := make([]float64, len(chunk))
				ghost := make([]float64, len(chunk)+2)
				for it := 0; it < cfg.Iterations; it++ {
					if w > 0 {
						if err := left[w-1].Send(c, chunk[0]); err != nil {
							return err
						}
					}
					if w < cfg.Tasks-1 {
						if err := right[w].Send(c, chunk[len(chunk)-1]); err != nil {
							return err
						}
					}
					var lg, rg float64 // fixed 0 boundary
					if w > 0 {
						v, ok, err := right[w-1].Recv(c)
						if err != nil || !ok {
							return fmt.Errorf("heat-%d it %d: recv left: ok=%v err=%w", w, it, ok, err)
						}
						lg = v
					}
					if w < cfg.Tasks-1 {
						v, ok, err := left[w].Recv(c)
						if err != nil || !ok {
							return fmt.Errorf("heat-%d it %d: recv right: ok=%v err=%w", w, it, ok, err)
						}
						rg = v
					}
					ghost[0] = lg
					copy(ghost[1:], chunk)
					ghost[len(ghost)-1] = rg
					diffuse(ghost, next)
					chunk, next = next, chunk
				}
				if w > 0 {
					if err := left[w-1].Close(c); err != nil {
						return err
					}
				}
				if w < cfg.Tasks-1 {
					if err := right[w].Close(c); err != nil {
						return err
					}
				}
				return results[w].Set(c, chunk)
			}, moved); err != nil {
				return 0, err
			}
		}

		final := make([]float64, 0, total)
		for w := 0; w < cfg.Tasks; w++ {
			chunk, err := results[w].Get(t)
			if err != nil {
				return 0, err
			}
			final = append(final, chunk...)
		}
		return checksum(final), nil
	}, nil
}
