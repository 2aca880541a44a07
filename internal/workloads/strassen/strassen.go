// Package strassen multiplies matrices with Strassen's divide-and-conquer
// recursion (benchmark 7 of the paper, as found in the Cilk, BOTS, and
// KASTORS suites): sparse 128x128 inputs, recursion issuing asynchronous
// multiplication and addition tasks down to a fixed depth, with results
// joined through promise-backed futures.
package strassen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config sizes the multiplication.
type Config struct {
	N        int // matrix dimension (power of two)
	NonZeros int // random nonzero entries per input
	Depth    int // recursion depth spawning tasks
	Seed     int64
}

// Small is the test-sized configuration.
func Small() Config { return Config{N: 32, NonZeros: 500, Depth: 2, Seed: 1} }

// Default is the benchmark configuration.
func Default() Config { return Config{N: 128, NonZeros: 8000, Depth: 4, Seed: 1} }

// Paper is the paper's configuration: sparse 128x128 matrices with around
// 8,000 values and asynchronous tasks to depth 5 (about 59,000 tasks).
func Paper() Config { return Config{N: 128, NonZeros: 8000, Depth: 5, Seed: 1} }

// mat is a dense square matrix in row-major order.
type mat struct {
	n int
	d []float64
}

func newMat(n int) *mat { return &mat{n: n, d: make([]float64, n*n)} }

func (m *mat) at(i, j int) float64     { return m.d[i*m.n+j] }
func (m *mat) set(i, j int, v float64) { m.d[i*m.n+j] = v }

// quadrant extracts the (qi,qj) quadrant (0 or 1 each) as a copy.
func (m *mat) quadrant(qi, qj int) *mat {
	h := m.n / 2
	q := newMat(h)
	for i := 0; i < h; i++ {
		copy(q.d[i*h:(i+1)*h], m.d[(qi*h+i)*m.n+qj*h:(qi*h+i)*m.n+qj*h+h])
	}
	return q
}

func add(a, b *mat) *mat {
	c := newMat(a.n)
	for i := range c.d {
		c.d[i] = a.d[i] + b.d[i]
	}
	return c
}

func sub(a, b *mat) *mat {
	c := newMat(a.n)
	for i := range c.d {
		c.d[i] = a.d[i] - b.d[i]
	}
	return c
}

func naive(a, b *mat) *mat {
	n := a.n
	c := newMat(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.at(i, k)
			if aik == 0 {
				continue
			}
			row := b.d[k*n : (k+1)*n]
			out := c.d[i*n : (i+1)*n]
			for j, v := range row {
				out[j] += aik * v
			}
		}
	}
	return c
}

// assemble joins four quadrants into one matrix.
func assemble(c11, c12, c21, c22 *mat) *mat {
	h := c11.n
	c := newMat(2 * h)
	for i := 0; i < h; i++ {
		copy(c.d[i*c.n:], c11.d[i*h:(i+1)*h])
		copy(c.d[i*c.n+h:], c12.d[i*h:(i+1)*h])
		copy(c.d[(h+i)*c.n:], c21.d[i*h:(i+1)*h])
		copy(c.d[(h+i)*c.n+h:], c22.d[i*h:(i+1)*h])
	}
	return c
}

// strassen multiplies a and b, spawning the seven sub-products as future
// tasks while depth > 0, and the four quadrant combinations as addition
// tasks, then joining everything through promise gets.
func strassen(t *core.Task, a, b *mat, depth int) (*mat, error) {
	if depth <= 0 || a.n <= 4 {
		return naive(a, b), nil
	}
	a11, a12, a21, a22 := a.quadrant(0, 0), a.quadrant(0, 1), a.quadrant(1, 0), a.quadrant(1, 1)
	b11, b12, b21, b22 := b.quadrant(0, 0), b.quadrant(0, 1), b.quadrant(1, 0), b.quadrant(1, 1)

	// Each sub-product's operands are formed just before its task spawns.
	operands := [7]func() (x, y *mat){
		func() (*mat, *mat) { return add(a11, a22), add(b11, b22) },
		func() (*mat, *mat) { return add(a21, a22), b11 },
		func() (*mat, *mat) { return a11, sub(b12, b22) },
		func() (*mat, *mat) { return a22, sub(b21, b11) },
		func() (*mat, *mat) { return add(a11, a12), b22 },
		func() (*mat, *mat) { return sub(a21, a11), add(b11, b12) },
		func() (*mat, *mat) { return sub(a12, a22), add(b21, b22) },
	}
	var m [7]*collections.Future[*mat]
	for i, xy := range operands {
		x, y := xy()
		var err error
		if m[i], err = collections.Go(t, func(c *core.Task) (*mat, error) {
			return strassen(c, x, y, depth-1)
		}); err != nil {
			return nil, err
		}
	}
	var p [7]*mat
	for i, f := range m {
		var err error
		if p[i], err = f.Get(t); err != nil {
			return nil, err
		}
	}

	// Asynchronous addition tasks combine the quadrants.
	combine := [4]func() *mat{
		func() *mat { return add(sub(add(p[0], p[3]), p[4]), p[6]) },
		func() *mat { return add(p[2], p[4]) },
		func() *mat { return add(p[1], p[3]) },
		func() *mat { return add(add(sub(p[0], p[1]), p[2]), p[5]) },
	}
	var f [4]*collections.Future[*mat]
	for i, fn := range combine {
		var err error
		if f[i], err = collections.Go(t, func(*core.Task) (*mat, error) { return fn(), nil }); err != nil {
			return nil, err
		}
	}
	var c [4]*mat
	for i := range f {
		var err error
		if c[i], err = f[i].Get(t); err != nil {
			return nil, err
		}
	}
	return assemble(c[0], c[1], c[2], c[3]), nil
}

func inputs(cfg Config) (*mat, *mat) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	a, b := newMat(cfg.N), newMat(cfg.N)
	for k := 0; k < cfg.NonZeros; k++ {
		a.d[rng.Intn(len(a.d))] = rng.Float64()*2 - 1
		b.d[rng.Intn(len(b.d))] = rng.Float64()*2 - 1
	}
	return a, b
}

// quantize folds a matrix into a stable integer checksum, tolerant of the
// (deterministic) Strassen reassociation relative to the naive product.
func quantize(m *mat) uint64 {
	var acc uint64
	for _, v := range m.d {
		acc = acc*1099511628211 + uint64(int64(math.Round(v*1e6)))
	}
	return acc
}

// RunSequential computes the reference checksum with the naive product.
func RunSequential(cfg Config) uint64 {
	a, b := inputs(cfg)
	return quantize(naive(a, b))
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare validates cfg and generates the two input matrices, then
// returns a one-shot body that multiplies them under its task and returns
// the quantized checksum of the product.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	if cfg.N&(cfg.N-1) != 0 || cfg.N < 8 {
		return nil, fmt.Errorf("strassen: N must be a power of two >= 8, got %d", cfg.N)
	}
	a, b := inputs(cfg)
	return func(t *core.Task) (uint64, error) {
		c, err := strassen(t, a, b, cfg.Depth)
		if err != nil {
			return 0, err
		}
		return quantize(c), nil
	}, nil
}
