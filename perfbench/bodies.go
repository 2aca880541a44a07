package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/serve"
)

// deadlockPercent is the share, in percent, of serving sessions that run
// Listing 1, on pool-closed and front-closed alike. It is the deadlock
// injection rate of the repository's committed serving acceptance runs
// (loadgen -inject 0.05: the CI serving smoke, the nightly soak and the
// serve section of BENCH_table1.json), so the detector's alarm path
// carries the weight it carries there.
const deadlockPercent = 5

// noopBody is the empty session: all of its cost is the serving layers'.
func noopBody(*core.Task) error { return nil }

const fanWidth = 8

// fanBody spawns fanWidth children, each fulfilling a promise moved to
// it, and sums the values through the root's Gets.
func fanBody(t *core.Task) error {
	var cells [fanWidth]*core.Promise[int]
	for k := range cells {
		p := core.NewPromise[int](t)
		cells[k] = p
		v := k + 1
		if _, err := t.Async(func(c *core.Task) error { return p.Set(c, v) }, p); err != nil {
			return err
		}
	}
	sum := 0
	for _, p := range cells {
		v, err := p.Get(t)
		if err != nil {
			return err
		}
		sum += v
	}
	if want := fanWidth * (fanWidth + 1) / 2; sum != want {
		return fmt.Errorf("fan sum %d, want %d", sum, want)
	}
	return nil
}

// listing1Body is the paper's Listing 1: the root owns p and waits on q,
// the child owns q and waits on p. Under Full mode the detector must
// convict the cycle.
func listing1Body(root *core.Task) error {
	p := core.NewPromise[int](root)
	q := core.NewPromise[int](root)
	if _, err := root.Async(func(t2 *core.Task) error {
		if _, err := p.Get(t2); err != nil {
			return err
		}
		return q.Set(t2, 1)
	}, q); err != nil {
		return err
	}
	if _, err := q.Get(root); err != nil {
		return err
	}
	return p.Set(root, 1)
}

// sessionKind is one entry of a serving mix: a body, the verdict its
// sessions must get, and how many sessions of each block of the mix's
// deck (see kindDeck) are of it.
type sessionKind struct {
	name  string
	body  core.TaskFunc
	want  serve.Verdict
	count int
}

// deck deals indices in a seeded order from shuffled blocks that hold
// each index in its exact count, so every block has the mix's exact
// proportions and a rare kind can neither bunch up nor go missing in a
// run.
type deck struct {
	rng   *rand.Rand
	block []int
	next  int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for i, c := range counts {
		for j := 0; j < c; j++ {
			d.block = append(d.block, i)
		}
	}
	d.next = len(d.block)
	return d
}

// kindDeck deals kind indices in the mix's proportions.
func kindDeck(rng *rand.Rand, kinds []sessionKind) *deck {
	counts := make([]int, len(kinds))
	for i, k := range kinds {
		counts[i] = k.count
	}
	return newDeck(rng, counts...)
}

func (d *deck) draw() int {
	if d.next == len(d.block) {
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
		d.next = 0
	}
	v := d.block[d.next]
	d.next++
	return v
}
