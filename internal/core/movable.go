package core

// Movable is anything that can be handed from a parent task to a child at
// spawn time. A *Promise[T] is Movable (it moves itself); composite
// objects built from many promises — the paper's PromiseCollection — are
// Movable by returning all constituent promises that must travel with the
// object. See collections.Channel for the paper's Listing 4 example: moving
// the channel moves its current producer promise, so the sending end of
// the channel moves between tasks without breaking the abstraction.
type Movable interface {
	// Promises returns the promises that must move when this object moves.
	Promises() []AnyPromise
}

// Group is a Movable aggregating other Movables, for passing several
// promises or collections to Async as one argument.
type Group []Movable

// Promises returns the union of the members' promises.
func (g Group) Promises() []AnyPromise {
	var out []AnyPromise
	for _, m := range g {
		out = append(out, m.Promises()...)
	}
	return out
}
