package collections

import (
	"fmt"

	"repro/internal/core"
)

// column is the Movable handed to one party: its promises across all
// rounds (plus, for AllToOne's leader, the release promises).
type column struct{ ps []core.AnyPromise }

func (c column) AppendPromises(dst []core.AnyPromise) []core.AnyPromise {
	return append(dst, c.ps...)
}

// Barrier is an all-to-all promise dependence pattern: for each round,
// party i fulfils its own arrival promise and then awaits the arrival
// promise of every other party. This is the promise replacement for the
// OpenMP barriers in StreamCluster (§6.3). All promises are allocated up
// front by the constructing task (usually the root) and moved to the
// workers at spawn via Column — the allocate-in-root-and-move pattern the
// paper calls out when discussing SmithWaterman's memory overhead.
type Barrier struct {
	parties int
	rounds  int
	slots   [][]*core.Promise[struct{}] // [round][party]
}

// NewBarrier allocates arrival promises for the given number of parties
// and rounds, all owned by t until moved.
func NewBarrier(t *core.Task, parties, rounds int) *Barrier {
	b := &Barrier{parties: parties, rounds: rounds}
	b.slots = make([][]*core.Promise[struct{}], rounds)
	for r := range b.slots {
		b.slots[r] = make([]*core.Promise[struct{}], parties)
		for p := range b.slots[r] {
			b.slots[r][p] = core.NewPromiseNamed[struct{}](t, fmt.Sprintf("bar[%d][%d]", r, p))
		}
	}
	return b
}

// Parties returns the number of participating tasks.
func (b *Barrier) Parties() int { return b.parties }

// Rounds returns the number of barrier episodes supported.
func (b *Barrier) Rounds() int { return b.rounds }

// Column returns the Movable carrying party's arrival promises for every
// round; pass it to the Async that spawns that party's task.
func (b *Barrier) Column(party int) core.Movable {
	ps := make([]core.AnyPromise, 0, b.rounds)
	for r := 0; r < b.rounds; r++ {
		ps = append(ps, b.slots[r][party])
	}
	return column{ps}
}

// Await performs round's barrier episode for party: announce arrival, then
// wait for everyone else. Total promise traffic per round is N sets and
// N*(N-1) gets — the all-to-all pattern. Most of those gets find their
// promise already fulfilled and resolve on the single-atomic-load fast
// path; only the gets on stragglers' promises block.
func (b *Barrier) Await(t *core.Task, party, round int) error {
	if err := b.slots[round][party].Set(t, struct{}{}); err != nil {
		return err
	}
	for j := 0; j < b.parties; j++ {
		if j == party {
			continue
		}
		if _, err := b.slots[round][j].Get(t); err != nil {
			return err
		}
	}
	return nil
}

// AllToOne is the reduced-synchronization replacement used by
// StreamCluster2 (§6.3): per round, every non-leader announces arrival
// (one set) and awaits a single release promise; the leader collects all
// arrivals and fulfils the release. Promise traffic per round drops from
// N*(N-1) gets to 2(N-1) gets, which is why SC2 beats SC in the paper.
type AllToOne struct {
	parties int
	rounds  int
	leader  int
	arrive  [][]*core.Promise[struct{}] // [round][party]; nil at leader slot
	release []*core.Promise[struct{}]   // [round], owned by the leader
}

// NewAllToOne allocates the arrival and release promises, all owned by t
// until moved. Party 0 is the leader.
func NewAllToOne(t *core.Task, parties, rounds int) *AllToOne {
	a := &AllToOne{parties: parties, rounds: rounds, leader: 0}
	a.arrive = make([][]*core.Promise[struct{}], rounds)
	a.release = make([]*core.Promise[struct{}], rounds)
	for r := 0; r < rounds; r++ {
		a.arrive[r] = make([]*core.Promise[struct{}], parties)
		for p := 0; p < parties; p++ {
			if p == a.leader {
				continue
			}
			a.arrive[r][p] = core.NewPromiseNamed[struct{}](t, fmt.Sprintf("arr[%d][%d]", r, p))
		}
		a.release[r] = core.NewPromiseNamed[struct{}](t, fmt.Sprintf("rel[%d]", r))
	}
	return a
}

// Parties returns the number of participating tasks.
func (a *AllToOne) Parties() int { return a.parties }

// Leader returns the index of the leader party.
func (a *AllToOne) Leader() int { return a.leader }

// Column returns the Movable for party: its arrival promises, or — for
// the leader — the release promises.
func (a *AllToOne) Column(party int) core.Movable {
	var ps []core.AnyPromise
	if party == a.leader {
		for r := 0; r < a.rounds; r++ {
			ps = append(ps, a.release[r])
		}
	} else {
		for r := 0; r < a.rounds; r++ {
			ps = append(ps, a.arrive[r][party])
		}
	}
	return column{ps}
}

// Await performs round's episode for party.
func (a *AllToOne) Await(t *core.Task, party, round int) error {
	if party == a.leader {
		if err := a.Gather(t, round); err != nil {
			return err
		}
		return a.Release(t, round)
	}
	if err := a.arrive[round][party].Set(t, struct{}{}); err != nil {
		return err
	}
	_, err := a.release[round].Get(t)
	return err
}

// Gather is the first half of the leader's episode: await every arrival.
// Splitting Gather and Release lets the leader do work (e.g. a reduction
// over data the arrivals ordered) at the point where all parties have
// arrived but none has resumed.
func (a *AllToOne) Gather(t *core.Task, round int) error {
	for j := 0; j < a.parties; j++ {
		if j == a.leader {
			continue
		}
		if _, err := a.arrive[round][j].Get(t); err != nil {
			return err
		}
	}
	return nil
}

// Release is the second half of the leader's episode: resume the team.
func (a *AllToOne) Release(t *core.Task, round int) error {
	return a.release[round].Set(t, struct{}{})
}
