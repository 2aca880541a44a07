package trace

import (
	"sync"
	"testing"
	"time"
)

// TestEmitStampedDeliversAll drives the staged-emission API interleaved
// with direct Emits and checks that every stamped event arrives exactly
// once, in recoverable total order.
func TestEmitStampedDeliversAll(t *testing.T) {
	mem := NewMemSink(0)
	c := New(mem)

	const directPerBatch, batches, batchLen = 16, 6, 293
	total := batches * (batchLen + directPerBatch)
	for b := 0; b < batches; b++ {
		batch := make([]Event, batchLen)
		for i := range batch {
			batch[i] = Event{Seq: c.NextSeq(), Kind: KindSet, TaskID: 7}
		}
		c.EmitStamped(batch)
		for i := 0; i < directPerBatch; i++ {
			c.Emit(Event{Kind: KindNewPromise, TaskID: 7})
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
	evs := mem.Snapshot()
	if len(evs) != total {
		t.Fatalf("delivered %d events, want %d", len(evs), total)
	}
	seen := map[uint64]bool{}
	for i, e := range evs {
		if e.Seq == 0 {
			t.Fatalf("event %d has no sequence number", i)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if i > 0 && e.Seq < evs[i-1].Seq {
			t.Fatalf("snapshot not in seq order at %d", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEmitStampedConcurrent hammers stamped batches from many writers
// at once; nothing may be lost or duplicated.
func TestEmitStampedConcurrent(t *testing.T) {
	mem := NewMemSink(0)
	c := New(mem)

	const writers, perWriter, batchLen = 8, 60, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < perWriter; b++ {
				batch := make([]Event, batchLen)
				for i := range batch {
					batch[i] = Event{Seq: c.NextSeq(), Kind: KindSet, TaskID: uint64(w)}
				}
				c.EmitStamped(batch)
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
	evs := mem.Snapshot()
	want := writers * perWriter * batchLen
	if len(evs) != want {
		t.Fatalf("delivered %d events, want %d", len(evs), want)
	}
	seen := map[uint64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestEmitStampedAfterCloseCounts: stamped batches arriving after Close
// are counted as dropped, never silently lost and never delivered to
// closed sinks.
func TestEmitStampedAfterCloseCounts(t *testing.T) {
	mem := NewMemSink(0)
	c := New(mem)
	batch := []Event{{Seq: c.NextSeq(), Kind: KindSet, TaskID: 1}}
	c.EmitStamped(batch)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	late := []Event{
		{Seq: 1000, Kind: KindSet, TaskID: 1},
		{Seq: 1001, Kind: KindSet, TaskID: 1},
	}
	c.EmitStamped(late)
	if d := c.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	if got := len(mem.Snapshot()); got != 1 {
		t.Fatalf("delivered %d, want only the pre-close event", got)
	}
}

// slowSink parks its first WriteEvents until release fires, then
// forwards every batch to the embedded MemSink.
type slowSink struct {
	*MemSink
	once    sync.Once
	entered chan struct{}
	release <-chan time.Time
}

func (s *slowSink) WriteEvents(batch []Event) error {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.MemSink.WriteEvents(batch)
}

// TestSlowSinkBackPressure parks one writer inside a slow sink's first
// write and then emits far more staged events than any bounded buffer
// would hold: the other writers must wait for the sink, and every event
// must reach it. A collector that drops on overflow fails here.
func TestSlowSinkBackPressure(t *testing.T) {
	sink := &slowSink{
		MemSink: NewMemSink(0),
		entered: make(chan struct{}),
		release: time.After(300 * time.Millisecond),
	}
	c := New(sink)
	parked := make(chan struct{})
	first := []Event{{Seq: c.NextSeq(), Kind: KindSet, TaskID: 1}}
	go func() {
		defer close(parked)
		c.EmitStamped(first)
	}()
	<-sink.entered

	const batches, batchLen = 320, 256
	for b := 0; b < batches; b++ {
		batch := make([]Event, batchLen)
		for i := range batch {
			batch[i] = Event{Seq: c.NextSeq(), Kind: KindSet, TaskID: 2}
		}
		c.EmitStamped(batch)
	}
	<-parked
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
	evs := sink.Snapshot()
	if want := 1 + batches*batchLen; len(evs) != want {
		t.Fatalf("delivered %d events, want %d", len(evs), want)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: lost or duplicated", i, e.Seq)
		}
	}
}
