package core

// Vectorized spawn: submit a whole fan-out in one call.
//
// A per-spawn submit pays its fixed costs N times: N executor
// submissions (each with its own deque push, wakeup gate, and searcher
// check), N wait-group and idle-watch updates issued separately.
// AsyncBatch collapses them: ownership transfer is validated
// all-or-nothing across the batch, accounting is opened with one
// wg.Add(n) / tasks.Add(n), and placement is handed to the executor as a
// single Executor.ExecuteBatch call, so the executor (sched.Elastic)
// amortizes its push-and-wake machinery across the batch. The default
// executor starts one goroutine per child.

// SpawnSpec describes one child of an AsyncBatch fan-out: a diagnostic
// name (optional), the body, and the promises moved to the child
// (rule 2), exactly as the corresponding AsyncNamed arguments.
type SpawnSpec struct {
	Name  string
	Body  TaskFunc
	Moved []Movable
}

// AsyncBatch spawns one child per spec in a single call, amortizing the
// fixed per-spawn costs across the batch. Semantics match issuing the
// AsyncNamed calls in spec order, with one difference in failure shape:
// ownership of EVERY spec's moved set is validated before ANY child is
// created, so a batch with one invalid move starts nothing (per-spawn
// code would have started the children preceding the bad one). A promise
// listed by two specs is moved by the earlier one; the later listing is
// skipped, exactly like a duplicate within one spawn.
func (t *Task) AsyncBatch(specs []SpawnSpec) ([]*Task, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	r := t.rt
	// Each spec's moved set is expanded once, for both passes. Only a
	// batch that moves composites keeps the expansions, so a batch of
	// plain promise moves allocates nothing for them.
	var sets []movedSet
	if r.mode >= Ownership {
		for i := range specs {
			if len(specs[i].Moved) == 0 {
				continue
			}
			ms := expandMoved(specs[i].Moved)
			if err := t.validateMoved(ms); err != nil {
				r.alarm(err)
				return nil, err
			}
			if ms.exp {
				if sets == nil {
					sets = make([]movedSet, len(specs))
				}
				sets[i] = ms
			}
		}
	}
	children := make([]*Task, len(specs))
	for i := range specs {
		children[i] = r.newTask(specs[i].Name, t)
		children[i].body = specs[i].Body
	}
	if r.mode >= Ownership {
		for i := range specs {
			if len(specs[i].Moved) == 0 {
				continue
			}
			ms := movedSet{args: specs[i].Moved}
			if sets != nil && sets[i].exp {
				ms = sets[i]
			}
			t.transferMoved(children[i], ms)
		}
	}
	r.startTaskBatch(t, children)
	return children, nil
}

// startTaskBatch is startTask over a whole batch whose bodies are
// already stored in the tasks: identical per-child records (EvTaskStart,
// idle watch), but the counters are bumped once and placement is
// vectorized.
func (r *Runtime) startTaskBatch(parent *Task, ts []*Task) {
	n := len(ts)
	r.wg.Add(n)
	r.tasks.Add(int64(n))
	if m := cmet(); m != nil {
		m.spawnsBatch.Add(int64(n))
	}
	if r.idle != nil {
		for range ts {
			r.idle.taskStarted()
		}
	}
	if r.events != nil {
		for _, c := range ts {
			r.stageStart(parent, c)
		}
	}
	if r.exec == nil {
		for _, c := range ts {
			go c.run()
		}
		return
	}
	js := make([]Job, n)
	for i, c := range ts {
		js[i] = (*taskJob)(c)
	}
	r.exec.ExecuteBatch(js)
}
