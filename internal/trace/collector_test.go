package trace

import (
	"sync"
	"testing"
)

// TestConcurrentEmit hammers one collector from many goroutines and
// checks that every event survives with a unique sequence number and
// nothing was dropped. Run under -race this exercises the delivery lock
// and the reused one-event batch.
func TestConcurrentEmit(t *testing.T) {
	mem := NewMemSink(0)
	c := New(mem)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Emit(Event{Kind: KindSet, TaskID: uint64(w + 1), PromiseID: uint64(i + 1)})
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
	evs := mem.Snapshot()
	if len(evs) != writers*perWriter {
		t.Fatalf("collected %d events, want %d", len(evs), writers*perWriter)
	}
	seen := make(map[uint64]bool, len(evs))
	for i, e := range evs {
		if e.Seq == 0 || seen[e.Seq] {
			t.Fatalf("event %d has zero/duplicate seq %d", i, e.Seq)
		}
		seen[e.Seq] = true
		if i > 0 && evs[i-1].Seq >= e.Seq {
			t.Fatalf("snapshot not sorted at %d", i)
		}
	}
}

// TestConcurrentEmitWithFlushes interleaves mid-run Flushes with
// concurrent writers: nothing may be lost or double-delivered.
func TestConcurrentEmitWithFlushes(t *testing.T) {
	mem := NewMemSink(0)
	c := New(mem)
	const writers = 4
	const perWriter = 3000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent flusher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := c.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				c.Emit(Event{Kind: KindBlock, TaskID: uint64(w), Arg: uint64(i)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Snapshot()
	if len(evs) != writers*perWriter {
		t.Fatalf("collected %d events, want %d (dropped=%d)", len(evs), writers*perWriter, c.Dropped())
	}
	seen := make(map[uint64]bool, len(evs))
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("seq %d delivered twice", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestMemSinkRetention checks the bounded MemSink keeps exactly the most
// recent events by Seq, behind one gap record counting the rest.
func TestMemSinkRetention(t *testing.T) {
	mem := NewMemSink(8)
	c := New(mem)
	for i := 0; i < 1000; i++ {
		c.Emit(Event{Kind: KindSet, TaskID: 1, PromiseID: uint64(i + 1)})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Snapshot()
	if len(evs) != 1+8 {
		t.Fatalf("retained %d events, want a gap record and 8", len(evs))
	}
	if g := evs[0]; g.Kind != KindGap || g.Seq != 0 || g.Arg != 1000-8 {
		t.Fatalf("window leads with %+v, want a Seq-0 gap of %d", g, 1000-8)
	}
	for i, e := range evs[1:] {
		if want := uint64(1000 - 8 + i + 1); e.PromiseID != want {
			t.Fatalf("retained[%d] = promise %d, want %d", i, e.PromiseID, want)
		}
	}
}
