package core

import "slices"

// Movable is anything that can be handed from a parent task to a child at
// spawn time. A *Promise[T] is Movable (it moves itself); composite
// objects built from many promises — the paper's PromiseCollection — are
// Movable by listing all constituent promises that must travel with the
// object. See collections.Channel for the paper's Listing 4 example: moving
// the channel moves its current producer promise, so the sending end of
// the channel moves between tasks without breaking the abstraction.
type Movable interface {
	// AppendPromises appends the promises that must move when this
	// object moves to dst and returns the extended slice. The spawn path
	// appends straight into the child's owned list, so an implementation
	// should append all its promises at once (growing dst at most once)
	// rather than build a slice of its own.
	AppendPromises(dst []AnyPromise) []AnyPromise
}

// Group is a Movable aggregating other Movables, for passing several
// promises or collections to Async as one argument.
type Group []Movable

// AppendPromises appends the union of the members' promises to dst, in
// member order. More than one member first grows dst by the member count,
// so promise members never grow it by doubling. A composite member's
// append grows dst to exactly what it needs when that exceeds twice the
// capacity, so a Group sizes dst exactly when its one multi-promise member
// comes last: Group{p, column}, not Group{column, p}.
func (g Group) AppendPromises(dst []AnyPromise) []AnyPromise {
	if len(g) > 1 {
		dst = slices.Grow(dst, len(g))
	}
	for _, m := range g {
		dst = m.AppendPromises(dst)
	}
	return dst
}
