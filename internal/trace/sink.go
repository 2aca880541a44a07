package trace

import (
	"io"
	"os"
	"sync"
)

// Sink receives event batches from a Collector. WriteEvents is called
// with batches sorted by Seq within themselves; the stream across
// batches is near-sorted (readers recover total order via SortBySeq).
// The collector serializes calls under its lock, but they come from
// whichever goroutine emitted the batch. WriteEvents must copy what it
// keeps (the batch is reused) and must not call back into the
// collector; its latency is paid by the emitting writers.
type Sink interface {
	WriteEvents(batch []Event) error
	Close() error
}

// MemSink retains events in memory. With a positive limit it keeps only
// the most recent (by Seq) limit events — the retention policy of the
// runtime's post-mortem event log. The zero limit retains everything.
type MemSink struct {
	mu    sync.Mutex
	limit int
	evs   []Event
}

// NewMemSink creates a MemSink retaining at most limit events (0 = all).
func NewMemSink(limit int) *MemSink { return &MemSink{limit: limit} }

// WriteEvents implements Sink.
func (m *MemSink) WriteEvents(batch []Event) error {
	m.mu.Lock()
	m.evs = append(m.evs, batch...)
	if m.limit > 0 && len(m.evs) > 2*m.limit {
		m.trimLocked()
	}
	m.mu.Unlock()
	return nil
}

// trimLocked sorts and keeps the most recent limit events.
func (m *MemSink) trimLocked() {
	SortBySeq(m.evs)
	m.evs = append(m.evs[:0], m.evs[len(m.evs)-m.limit:]...)
}

// Close implements Sink; a MemSink has nothing to release.
func (m *MemSink) Close() error { return nil }

// Snapshot returns the retained events in total (Seq) order, bounded by
// the sink's limit.
func (m *MemSink) Snapshot() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	SortBySeq(m.evs)
	if m.limit > 0 && len(m.evs) > m.limit {
		m.evs = append(m.evs[:0], m.evs[len(m.evs)-m.limit:]...)
	}
	out := make([]Event, len(m.evs))
	copy(out, m.evs)
	return out
}

// WriterSink streams the binary trace encoding to an io.Writer. The
// header is written with the first batch. Close flushes buffered bytes
// but does not close the underlying writer (FileSink does).
type WriterSink struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	header bool
	count  int
}

// NewWriterSink creates a sink encoding to w.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// WriteEvents implements Sink.
func (s *WriterSink) WriteEvents(batch []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	if !s.header {
		s.buf = AppendHeader(s.buf)
		s.header = true
	}
	for _, e := range batch {
		s.buf = AppendEvent(s.buf, e)
	}
	s.count += len(batch)
	_, err := s.w.Write(s.buf)
	return err
}

// Count returns the number of events written so far.
func (s *WriterSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Close implements Sink. A stream with no events still gets its header,
// so an empty trace file is distinguishable from a non-trace file.
func (s *WriterSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.header {
		s.header = true
		_, err := s.w.Write(AppendHeader(nil))
		return err
	}
	return nil
}

// FileSink writes the binary trace format to a file.
type FileSink struct {
	*WriterSink
	f *os.File
}

// NewFileSink creates (truncating) the trace file at path.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileSink{WriterSink: NewWriterSink(f), f: f}, nil
}

// Close flushes and closes the file.
func (s *FileSink) Close() error {
	err := s.WriterSink.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
