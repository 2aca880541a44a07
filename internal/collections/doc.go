// Package collections builds higher-level synchronization primitives on
// top of the promise core, demonstrating the paper's object-oriented
// promise movement (§6.1): a composite object that implements
// core.Movable (the paper's PromiseCollection) moves all of its
// constituent promises when handed to a child task, so the object itself
// feels movable even though its promise population changes over time.
//
//   - Channel is the paper's Listing 4: a reusable promise chain where the
//     nth Recv obtains the value of the nth Send. Moving the channel moves
//     its current producer promise — the sending end travels between tasks
//     without breaking the abstraction. Used by the Conway and Heat
//     benchmarks in place of MPI primitives.
//   - Future binds a promise to a task's return value (the async API of
//     §1.1 expressed with the synchronous one). Used by Strassen.
//   - Finish awaits the termination of a set of spawned tasks, the
//     X10/Habanero join that the paper implements with promises for QSort.
//   - Barrier is an all-to-all promise dependence pattern replacing the
//     OpenMP barriers of StreamCluster; AllToOne is the reduced
//     synchronization variant used by StreamCluster2.
package collections
