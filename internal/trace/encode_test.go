package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// randomEvent draws an event with adversarial field values: zero and
// maximal integers, empty, unicode, and long strings.
func randomEvent(rng *rand.Rand) Event {
	str := func() string {
		switch rng.Intn(5) {
		case 0:
			return ""
		case 1:
			return "worker"
		case 2:
			return "héllo-wörld-§5.1-⇒"
		case 3:
			return strings.Repeat("x", rng.Intn(2000))
		default:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return string(b) // arbitrary bytes, not necessarily UTF-8
		}
	}
	num := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return ^uint64(0)
		case 2:
			return uint64(rng.Intn(1000))
		default:
			return rng.Uint64()
		}
	}
	return Event{
		Seq:          num(),
		Kind:         Kind(rng.Intn(int(KindRunEnd) + 2)), // includes one unknown kind
		TaskID:       num(),
		PromiseID:    num(),
		Arg:          num(),
		TaskName:     str(),
		PromiseLabel: str(),
		Detail:       str(),
	}
}

// TestEncodeDecodeRoundTrip is the property test: any event slice
// survives encode -> decode byte-for-byte (modulo Seq-sorting, which
// ReadAll applies).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		in := make([]Event, n)
		for i := range in {
			in[i] = randomEvent(rng)
		}
		buf := AppendHeader(nil)
		for _, e := range in {
			buf = AppendEvent(buf, e)
		}
		out, err := ReadAll(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if len(out) != len(in) {
			t.Fatalf("seed %d: decoded %d events, want %d", seed, len(out), len(in))
		}
		SortBySeq(in)
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("seed %d: event %d mismatch:\n in=%+v\nout=%+v", seed, i, in[i], out[i])
			}
		}
	}
}

// TestDecoderRejectsGarbage: wrong magic, truncated records, and
// oversized strings must error, not panic or spin.
func TestDecoderRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadAll(bytes.NewReader([]byte("PT"))); err == nil {
		t.Fatal("short header accepted")
	}
	// Valid header + one record, then truncate at every prefix length:
	// must never panic, and any error must be explicit.
	full := AppendEvent(AppendHeader(nil), Event{Seq: 7, Kind: KindSet, TaskName: "abcdef", Detail: "payload"})
	for cut := 6; cut < len(full); cut++ { // 5 = bare header, which is a valid empty stream
		if _, err := ReadAll(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A string length far beyond the stream must be rejected by the
	// limit, not attempted.
	evil := AppendHeader(nil)
	evil = append(evil, byte(KindSet))
	for i := 0; i < 4; i++ {
		evil = append(evil, 0) // seq, task, promise, arg = 0
	}
	evil = append(evil, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // huge uvarint length
	if _, err := ReadAll(bytes.NewReader(evil)); err == nil {
		t.Fatal("oversized string length accepted")
	}
}

// TestWriterSinkRoundTrip drives the sink the way a collector does —
// batched writes — and decodes the result.
func TestWriterSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf)
	want := 0
	rng := rand.New(rand.NewSource(42))
	for b := 0; b < 10; b++ {
		batch := make([]Event, rng.Intn(50))
		for i := range batch {
			batch[i] = randomEvent(rng)
			batch[i].Seq = uint64(want + i + 1) // unique, sorted
		}
		want += len(batch)
		if err := s.WriteEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != want {
		t.Fatalf("Count = %d, want %d", s.Count(), want)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != want {
		t.Fatalf("decoded %d, want %d", len(out), want)
	}
}

// TestEmptyStreamHasHeader: a closed sink with no events still writes a
// decodable (empty) trace.
func TestEmptyStreamHasHeader(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty stream decoded %d events", len(out))
	}
}

// TestAppendWindowCutsToNewest: a window that fits is the plain stream;
// one that does not keeps the newest records that fit behind one gap
// record counting every missing event, a gap the window already led
// with included.
func TestAppendWindowCutsToNewest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := []Event{gapRecord(40)}
	for i := 0; i < 200; i++ {
		e := randomEvent(rng)
		e.Seq = uint64(41 + i)
		if e.Kind == KindGap {
			e.Kind = KindSet
		}
		evs = append(evs, e)
	}
	whole := AppendWindow(nil, evs, math.MaxInt)
	got, err := ReadAll(bytes.NewReader(whole))
	if err != nil || !slices.Equal(got, evs) {
		t.Fatalf("uncut window does not round-trip (%v)", err)
	}
	for _, limit := range []int{len(whole) - 1, len(whole) / 2, len(whole) / 10, 1} {
		w := AppendWindow([]byte("prefix"), evs, limit)
		if string(w[:6]) != "prefix" {
			t.Fatalf("limit %d: the caller's bytes were overwritten", limit)
		}
		cut, err := ReadAll(bytes.NewReader(w[6:]))
		if err != nil {
			t.Fatalf("limit %d: cut window does not decode: %v", limit, err)
		}
		kept := cut[1:]
		if g := cut[0]; g.Kind != KindGap || g.Arg != 40+uint64(len(evs)-1-len(kept)) {
			t.Fatalf("limit %d: window leads with %v arg %d, want a gap counting %d", limit, g.Kind, g.Arg, 40+len(evs)-1-len(kept))
		}
		if !slices.Equal(kept, evs[len(evs)-len(kept):]) {
			t.Fatalf("limit %d: kept records are not the newest %d", limit, len(kept))
		}
		// The cut sizes its gap record for the largest count, 240.
		bare := headerLen + len(AppendEvent(nil, gapRecord(240)))
		if len(w)-6 > max(limit, bare) {
			t.Fatalf("limit %d: cut window is %d bytes", limit, len(w)-6)
		}
		tail := len(w) - 6 - headerLen - len(AppendEvent(nil, cut[0]))
		if len(kept) < len(evs)-1 && bare+tail+len(AppendEvent(nil, evs[len(evs)-len(kept)-1])) <= limit {
			t.Fatalf("limit %d: the next-newest record would have fit", limit)
		}
	}
}

// TestDecoderHugeDeclaredLength: a 14-byte stream that declares a 16 MiB
// string must fail as truncated after allocating a few KiB, not the
// declared length: traces arrive over the network.
func TestDecoderHugeDeclaredLength(t *testing.T) {
	evil := append(AppendHeader(nil), byte(KindSet), 0, 0, 0, 0)
	evil = binary.AppendUvarint(evil, maxStringLen)
	if len(evil) != 14 {
		t.Fatalf("stream is %d bytes, want 14", len(evil))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadAll(bytes.NewReader(evil))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncated record", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 8<<10 {
		t.Fatalf("decoding 14 bytes allocated %d bytes", n)
	}
}

// frontListing1 is the trace a front returned for a traced Deadlock
// session (Listing 1's cycle), as the client received it.
const frontListing1 = "testdata/front-listing1.trace"

// TestFrontTraceVerifies: a front-returned trace decodes, and its one
// deadlock cycle re-verifies, as it did when it was recorded.
func TestFrontTraceVerifies(t *testing.T) {
	evs, err := ReadFile(frontListing1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(evs)
	if !rep.Consistent() || !rep.Complete || rep.Deadlocks != 1 || !rep.Alarms[0].CycleVerified {
		t.Fatalf("%s: %s %q", frontListing1, rep.Summary(), rep.Problems)
	}
}

// FuzzDecode: arbitrary bytes through the decoder, which reads traces
// that arrive over the network. Decoding never panics; a stream that
// decodes re-encodes to the same events, verifies and draws without
// panicking, and cuts to a window that decodes. Seeds: a front-returned
// Listing 1 trace, a window of it cut in half, and truncations of both.
func FuzzDecode(f *testing.F) {
	front, err := os.ReadFile(frontListing1)
	if err != nil {
		f.Fatal(err)
	}
	evs, err := ReadAll(bytes.NewReader(front))
	if err != nil {
		f.Fatal(err)
	}
	cut := AppendWindow(nil, evs, len(front)/2)
	for _, seed := range [][]byte{front, cut, AppendWindow(nil, listing1("ownership"), math.MaxInt), AppendHeader(nil), {}} {
		f.Add(seed)
		for n := 1; n < len(seed); n += 7 {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReadAll(bytes.NewReader(AppendWindow(nil, evs, math.MaxInt)))
		if err != nil || !slices.Equal(again, evs) {
			t.Fatalf("decoded events do not round-trip (%v)", err)
		}
		Verify(evs)
		NewGraph(evs).DOT()
		if _, err := ReadAll(bytes.NewReader(AppendWindow(nil, evs, len(data)/2))); err != nil {
			t.Fatalf("cut window does not decode: %v", err)
		}
	})
}
