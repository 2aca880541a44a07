// Package streamcluster computes a streaming k-means clustering
// (benchmarks 8 and 9 of the paper, after PARSEC's StreamCluster kernel):
// points arrive in chunks; for each chunk a fixed team of worker tasks
// alternates assignment and center-update phases.
//
// In the StreamCluster variant the phases are separated by all-to-all
// promise barriers — the paper's replacement for the original OpenMP
// barriers — and every worker recomputes the centers redundantly from the
// published partials (avoiding the data race the paper found in the
// original). In the StreamCluster2 variant the all-to-all pattern is
// replaced by an all-to-one collection where it is correct to do so: the
// leader alone recomputes the centers and releases the team, halving the
// synchronization rounds and cutting promise traffic per round from
// O(W^2) to O(W).
package streamcluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config sizes the clustering.
type Config struct {
	Points   int // total points across the stream
	Dims     int
	Centers  int
	Workers  int
	Chunks   int // stream chunks; workers are (re)spawned per chunk
	Iters    int // k-means iterations per chunk
	Seed     int64
	Variant2 bool // StreamCluster2: all-to-one instead of all-to-all
}

// Small is the test-sized configuration.
func Small() Config {
	return Config{Points: 800, Dims: 8, Centers: 4, Workers: 4, Chunks: 2, Iters: 3, Seed: 1}
}

// Default is the benchmark configuration.
func Default() Config {
	return Config{Points: 20480, Dims: 64, Centers: 12, Workers: 8, Chunks: 4, Iters: 4, Seed: 1}
}

// Paper is the paper's configuration: 102,400 points in 128 dimensions
// with 8 worker tasks at a time (33 tasks total over 4 chunks).
func Paper() Config {
	return Config{Points: 102400, Dims: 128, Centers: 16, Workers: 8, Chunks: 4, Iters: 4, Seed: 1}
}

// partial is one worker's contribution to the center update.
type partial struct {
	sums   [][]float64
	counts []int64
}

func newPartial(k, dims int) *partial {
	p := &partial{sums: make([][]float64, k), counts: make([]int64, k)}
	for i := range p.sums {
		p.sums[i] = make([]float64, dims)
	}
	return p
}

func (p *partial) reset() {
	for i := range p.sums {
		for j := range p.sums[i] {
			p.sums[i][j] = 0
		}
		p.counts[i] = 0
	}
}

func genPoints(cfg Config) [][]float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := make([][]float64, cfg.Points)
	for i := range pts {
		pts[i] = make([]float64, cfg.Dims)
		for d := range pts[i] {
			pts[i][d] = rng.Float64()*20 - 10
		}
	}
	return pts
}

func nearest(pt []float64, centers [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range centers {
		var d float64
		for i, v := range pt {
			diff := v - centers[c][i]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// assignSlice accumulates the partial sums for points[lo:hi].
func assignSlice(points [][]float64, lo, hi int, centers [][]float64, out *partial) {
	out.reset()
	for i := lo; i < hi; i++ {
		c := nearest(points[i], centers)
		out.counts[c]++
		for d, v := range points[i] {
			out.sums[c][d] += v
		}
	}
}

// updateCenters folds the workers' partials (in worker order, keeping the
// float arithmetic deterministic) into new centers; centers with no
// assigned points keep their position.
func updateCenters(centers [][]float64, partials []*partial) {
	k := len(centers)
	dims := len(centers[0])
	for c := 0; c < k; c++ {
		var count int64
		sum := make([]float64, dims)
		for _, p := range partials {
			count += p.counts[c]
			for d := 0; d < dims; d++ {
				sum[d] += p.sums[c][d]
			}
		}
		if count == 0 {
			continue
		}
		for d := 0; d < dims; d++ {
			centers[c][d] = sum[d] / float64(count)
		}
	}
}

func initialCenters(points [][]float64, k int) [][]float64 {
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = append([]float64(nil), points[i]...)
	}
	return centers
}

func checksum(centers [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range centers {
		for _, v := range c {
			q := int64(math.Round(v * 1e9))
			for b := 0; b < 8; b++ {
				buf[b] = byte(uint64(q) >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func copyCenters(centers [][]float64) [][]float64 {
	out := make([][]float64, len(centers))
	for i := range centers {
		out[i] = append([]float64(nil), centers[i]...)
	}
	return out
}

// RunSequential computes the reference checksum single-threaded, using
// the identical per-worker-slice accumulation order so the floating point
// result matches the parallel runs bit for bit.
func RunSequential(cfg Config) uint64 {
	points := genPoints(cfg)
	perChunk := cfg.Points / cfg.Chunks
	centers := initialCenters(points, cfg.Centers)
	partials := make([]*partial, cfg.Workers)
	for w := range partials {
		partials[w] = newPartial(cfg.Centers, cfg.Dims)
	}
	for chunk := 0; chunk < cfg.Chunks; chunk++ {
		base := chunk * perChunk
		per := perChunk / cfg.Workers
		for it := 0; it < cfg.Iters; it++ {
			for w := 0; w < cfg.Workers; w++ {
				lo := base + w*per
				hi := lo + per
				if w == cfg.Workers-1 {
					hi = base + perChunk
				}
				assignSlice(points, lo, hi, centers, partials[w])
			}
			updateCenters(centers, partials)
		}
	}
	return checksum(centers)
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare validates cfg and generates the point stream, then returns a
// one-shot body that runs the promise-parallel clustering under its task
// and returns the checksum of the final centers.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	if cfg.Workers < 1 || cfg.Chunks < 1 || cfg.Points < cfg.Centers {
		return nil, fmt.Errorf("streamcluster: bad config %+v", cfg)
	}
	points := genPoints(cfg)
	return func(t *core.Task) (uint64, error) {
		perChunk := cfg.Points / cfg.Chunks
		centers := initialCenters(points, cfg.Centers)
		partials := make([]*partial, cfg.Workers)
		for w := range partials {
			partials[w] = newPartial(cfg.Centers, cfg.Dims)
		}

		for chunk := 0; chunk < cfg.Chunks; chunk++ {
			base := chunk * perChunk
			per := perChunk / cfg.Workers
			var err error
			if cfg.Variant2 {
				err = runChunkAllToOne(t, cfg, points, base, per, perChunk, centers, partials, chunk)
			} else {
				err = runChunkAllToAll(t, cfg, points, base, per, perChunk, centers, partials, chunk)
			}
			if err != nil {
				return 0, err
			}
		}
		return checksum(centers), nil
	}, nil
}

// runChunkAllToAll is the StreamCluster pattern: two all-to-all barrier
// rounds per iteration; every worker redundantly recomputes the centers.
func runChunkAllToAll(t *core.Task, cfg Config, points [][]float64, base, per, perChunk int, centers [][]float64, partials []*partial, chunk int) error {
	bar := collections.NewBarrier(t, cfg.Workers, cfg.Iters*2)
	results := make([]*core.Promise[[][]float64], cfg.Workers)
	for w := range results {
		results[w] = core.NewPromiseNamed[[][]float64](t, fmt.Sprintf("sc-res-%d-%d", chunk, w))
	}
	for w := 0; w < cfg.Workers; w++ {
		w := w
		lo := base + w*per
		hi := lo + per
		if w == cfg.Workers-1 {
			hi = base + perChunk
		}
		local := copyCenters(centers)
		if _, err := t.AsyncNamed(fmt.Sprintf("sc-%d-%d", chunk, w), func(c *core.Task) error {
			for it := 0; it < cfg.Iters; it++ {
				assignSlice(points, lo, hi, local, partials[w])
				if err := bar.Await(c, w, it*2); err != nil {
					return err
				}
				// Every worker recomputes identical centers from the
				// published partials (race-free: the barrier's promise
				// edges order the reads after all writes).
				updateCenters(local, partials)
				if err := bar.Await(c, w, it*2+1); err != nil {
					return err
				}
			}
			return results[w].Set(c, local)
		}, core.Group{results[w], bar.Column(w)}); err != nil {
			return err
		}
	}
	final, err := results[0].Get(t)
	if err != nil {
		return err
	}
	for w := 1; w < cfg.Workers; w++ {
		if _, err := results[w].Get(t); err != nil {
			return err
		}
	}
	for i := range centers {
		copy(centers[i], final[i])
	}
	return nil
}

// runChunkAllToOne is the StreamCluster2 pattern: one all-to-one round per
// iteration; the leader alone updates the shared centers.
func runChunkAllToOne(t *core.Task, cfg Config, points [][]float64, base, per, perChunk int, centers [][]float64, partials []*partial, chunk int) error {
	ato := collections.NewAllToOne(t, cfg.Workers, cfg.Iters)
	results := make([]*core.Promise[struct{}], cfg.Workers)
	for w := range results {
		results[w] = core.NewPromiseNamed[struct{}](t, fmt.Sprintf("sc2-res-%d-%d", chunk, w))
	}
	for w := 0; w < cfg.Workers; w++ {
		w := w
		lo := base + w*per
		hi := lo + per
		if w == cfg.Workers-1 {
			hi = base + perChunk
		}
		if _, err := t.AsyncNamed(fmt.Sprintf("sc2-%d-%d", chunk, w), func(c *core.Task) error {
			for it := 0; it < cfg.Iters; it++ {
				assignSlice(points, lo, hi, centers, partials[w])
				if w == ato.Leader() {
					// The leader gathers every arrival (ordering the
					// partial writes before this point), updates the
					// shared centers, then releases the team.
					if err := awaitLeaderUpdate(c, ato, it, centers, partials); err != nil {
						return err
					}
				} else {
					if err := ato.Await(c, w, it); err != nil {
						return err
					}
				}
			}
			return results[w].Set(c, struct{}{})
		}, core.Group{results[w], ato.Column(w)}); err != nil {
			return err
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		if _, err := results[w].Get(t); err != nil {
			return err
		}
	}
	return nil
}

// awaitLeaderUpdate is the leader's side of one all-to-one round with the
// center update spliced between the gather and the release. It mirrors
// AllToOne.Await for the leader but performs work at the point where all
// partials are visible and no worker has resumed.
func awaitLeaderUpdate(c *core.Task, ato *collections.AllToOne, round int, centers [][]float64, partials []*partial) error {
	if err := ato.Gather(c, round); err != nil {
		return err
	}
	updateCenters(centers, partials)
	return ato.Release(c, round)
}
