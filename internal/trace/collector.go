package trace

import (
	"sync"
	"sync/atomic"
)

// Collector assigns every event its global sequence number and delivers
// it to the sinks under one mutex. Delivery is synchronous: when Emit or
// EmitStamped returns, the sinks have the events, so a collector never
// buffers, never drops an event before Close, and starts no goroutine.
// The overflow policy is back-pressure: a slow sink makes writers wait
// for the lock. The runtime's per-task staging keeps that lock off the
// per-event path (one EmitStamped per staged batch).
type Collector struct {
	seq     atomic.Uint64 // the global sequence counter: the total order
	dropped atomic.Uint64 // events emitted after Close

	mu     sync.Mutex // serializes delivery and sink access
	sinks  []Sink
	one    [1]Event // Emit's one-event batch (guarded by mu; sinks copy)
	err    error
	closed bool
}

// New creates a collector delivering to sinks.
func New(sinks ...Sink) *Collector {
	return &Collector{sinks: append([]Sink(nil), sinks...)}
}

// Emit stamps e with the next sequence number and delivers it. Safe for
// any number of concurrent callers.
func (c *Collector) Emit(e Event) {
	e.Seq = c.seq.Add(1)
	c.mu.Lock()
	c.one[0] = e
	c.deliverLocked(c.one[:])
	c.mu.Unlock()
}

// NextSeq reserves and returns the next global sequence number, for
// writers that stage events locally (the runtime's per-task staging
// buffers) and deliver them later through EmitStamped. Reserving at the
// moment the event logically happens is what keeps the staged stream's
// total order consistent with every program order — delivery may lag,
// but readers sort by Seq.
func (c *Collector) NextSeq() uint64 { return c.seq.Add(1) }

// EmitStamped delivers a batch of pre-stamped events: Seq already
// assigned via NextSeq, in ascending order (one task's staged events).
// The collector does not retain evs.
func (c *Collector) EmitStamped(evs []Event) {
	if len(evs) == 0 {
		return
	}
	if m := tmet(); m != nil {
		m.flushes.Inc()
	}
	c.mu.Lock()
	c.deliverLocked(evs)
	c.mu.Unlock()
}

// deliverLocked writes batch to every sink, remembering the first sink
// error, or counts it as dropped after Close. Caller holds c.mu.
func (c *Collector) deliverLocked(batch []Event) {
	m := tmet()
	if c.closed {
		// Emitting after Close is a contract violation (see TraceClose):
		// the sinks are gone, so the batch is counted, never silent.
		c.dropped.Add(uint64(len(batch)))
		if m != nil {
			m.drops.Add(int64(len(batch)))
		}
		return
	}
	if m != nil {
		m.emitted.Add(int64(len(batch)))
	}
	for _, s := range c.sinks {
		if err := s.WriteEvents(batch); err != nil && c.err == nil {
			c.err = err
		}
	}
}

// Close closes every sink. Idempotent; returns the first recorded error.
// Events emitted afterwards are counted by Dropped, not delivered.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		for _, s := range c.sinks {
			if err := s.Close(); err != nil && c.err == nil {
				c.err = err
			}
		}
	}
	return c.err
}

// Dropped returns the number of events emitted after Close. Zero means
// the trace is complete.
func (c *Collector) Dropped() uint64 { return c.dropped.Load() }

// Err returns the first sink error encountered while delivering.
func (c *Collector) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
