// Package smithwaterman aligns two DNA sequences with the Smith-Waterman
// local-alignment recurrence, tiled into a wavefront of tasks (benchmark 6
// of the paper, adapted from HClib): one task per tile, depending on the
// promises of its west, north, and north-west neighbors.
//
// As in the paper, every tile promise is allocated by the root task and
// moved to the tile's task at spawn — the pattern the paper identifies as
// the cause of SmithWaterman's above-average memory overhead: the paper's
// owned lists remove lazily, so the root's list grows with every promise
// ever allocated. Here a move removes the entry exactly.
package smithwaterman

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Config sizes the alignment.
type Config struct {
	LenA, LenB int
	Tile       int
	Seed       int64
}

// Small is the test-sized configuration.
func Small() Config { return Config{LenA: 300, LenB: 350, Tile: 25, Seed: 1} }

// Default is the benchmark configuration.
func Default() Config { return Config{LenA: 3000, LenB: 3500, Tile: 25, Seed: 1} }

// Paper is the paper's configuration: sequences of 18,000-20,000 bases
// with 25x25 tiles (about 570,000 tasks).
func Paper() Config { return Config{LenA: 18000, LenB: 20000, Tile: 25, Seed: 1} }

const (
	matchScore    = 2
	mismatchScore = -1
	gapScore      = -1
)

func sequences(cfg Config) (a, b []byte) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bases := []byte("ACGT")
	a = make([]byte, cfg.LenA)
	b = make([]byte, cfg.LenB)
	for i := range a {
		a[i] = bases[rng.Intn(4)]
	}
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return a, b
}

func score(x, y byte) int32 {
	if x == y {
		return matchScore
	}
	return mismatchScore
}

// tileEdge is the data a tile publishes: its south row, east column, the
// south-east corner cell, and the maximum cell seen in the tile.
type tileEdge struct {
	south  []int32
	east   []int32
	corner int32
	best   int32
}

// computeTile fills the tile whose rows cover a[ra:rb] and columns cover
// b[ca:cb], given the north row, west column and north-west corner.
func computeTile(a, b []byte, ra, rb, ca, cb int, north, west []int32, nw int32) tileEdge {
	rows := rb - ra
	cols := cb - ca
	prev := make([]int32, cols+1) // row i-1: [nw?, north...]
	cur := make([]int32, cols+1)
	copy(prev[1:], north)
	prev[0] = nw
	var best int32
	east := make([]int32, rows)
	for i := 0; i < rows; i++ {
		cur[0] = west[i]
		for j := 0; j < cols; j++ {
			v := prev[j] + score(a[ra+i], b[ca+j])
			if up := prev[j+1] + gapScore; up > v {
				v = up
			}
			if lf := cur[j] + gapScore; lf > v {
				v = lf
			}
			if v < 0 {
				v = 0
			}
			cur[j+1] = v
			if v > best {
				best = v
			}
		}
		east[i] = cur[cols]
		prev, cur = cur, prev
	}
	south := make([]int32, cols)
	copy(south, prev[1:])
	var corner int32
	if rows > 0 && cols > 0 {
		corner = prev[cols]
	}
	return tileEdge{south: south, east: east, corner: corner, best: best}
}

// RunSequential computes the reference best score with a rolling-row DP.
func RunSequential(cfg Config) uint64 {
	a, b := sequences(cfg)
	prev := make([]int32, len(b)+1)
	cur := make([]int32, len(b)+1)
	var best int32
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			v := prev[j-1] + score(a[i-1], b[j-1])
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
	return uint64(best)
}

// Run prepares cfg and runs the body under task t.
func Run(t *core.Task, cfg Config) (uint64, error) {
	body, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return body(t)
}

// Prepare validates cfg and generates the two sequences, then returns a
// one-shot body that computes the best local-alignment score with the
// tiled wavefront under its task and returns it. Tile (i,j)'s task gets
// the promises of tiles (i-1,j), (i,j-1) and (i-1,j-1), computes, and
// sets its own promise.
func Prepare(cfg Config) (func(*core.Task) (uint64, error), error) {
	if cfg.Tile < 1 {
		return nil, fmt.Errorf("smithwaterman: bad tile %d", cfg.Tile)
	}
	a, b := sequences(cfg)
	return func(t *core.Task) (uint64, error) {
		tilesR := (len(a) + cfg.Tile - 1) / cfg.Tile
		tilesC := (len(b) + cfg.Tile - 1) / cfg.Tile

		// All tile promises are allocated in the root and moved at spawn.
		proms := make([][]*core.Promise[tileEdge], tilesR)
		for i := range proms {
			proms[i] = make([]*core.Promise[tileEdge], tilesC)
			for j := range proms[i] {
				proms[i][j] = core.NewPromiseNamed[tileEdge](t, fmt.Sprintf("tile-%d-%d", i, j))
			}
		}

		for i := 0; i < tilesR; i++ {
			for j := 0; j < tilesC; j++ {
				i, j := i, j
				ra, rb := i*cfg.Tile, min((i+1)*cfg.Tile, len(a))
				ca, cb := j*cfg.Tile, min((j+1)*cfg.Tile, len(b))
				if _, err := t.AsyncNamed(fmt.Sprintf("sw-%d-%d", i, j), func(c *core.Task) error {
					north := make([]int32, cb-ca) // zeros at the boundary
					west := make([]int32, rb-ra)
					var nw int32
					var bestAbove int32
					if i > 0 {
						e, err := proms[i-1][j].Get(c)
						if err != nil {
							return err
						}
						north = e.south
						if e.best > bestAbove {
							bestAbove = e.best
						}
					}
					if j > 0 {
						e, err := proms[i][j-1].Get(c)
						if err != nil {
							return err
						}
						west = e.east
						if e.best > bestAbove {
							bestAbove = e.best
						}
					}
					if i > 0 && j > 0 {
						e, err := proms[i-1][j-1].Get(c)
						if err != nil {
							return err
						}
						nw = e.corner
						if e.best > bestAbove {
							bestAbove = e.best
						}
					}
					edge := computeTile(a, b, ra, rb, ca, cb, north, west, nw)
					if bestAbove > edge.best {
						edge.best = bestAbove
					}
					return proms[i][j].Set(c, edge)
				}, proms[i][j]); err != nil {
					return 0, err
				}
			}
		}

		last, err := proms[tilesR-1][tilesC-1].Get(t)
		if err != nil {
			return 0, err
		}
		return uint64(last.best), nil
	}, nil
}
