package front

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// frameBytes builds a raw frame: length prefix, type byte, body.
func frameBytes(typ byte, body []byte) []byte {
	buf := make([]byte, 4+1+len(body))
	binary.BigEndian.PutUint32(buf, uint32(1+len(body)))
	buf[4] = typ
	copy(buf[5:], body)
	return buf
}

// readFrame reads the first frame of data.
func readFrame(data []byte) (byte, []byte, error) {
	return newFrameReader(bytes.NewReader(data)).read()
}

// TestReadFrameMalformed is the decode table: every malformed input a
// peer can produce must map to its typed sentinel — never a panic, an
// allocation of the advertised length, or a hang.
func TestReadFrameMalformed(t *testing.T) {
	hdr := func(n uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		return b[:]
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"truncated header", []byte{0, 0}, ErrFrameTruncated},
		{"zero length", hdr(0), ErrFrameOversized},
		// The cap bounds the LENGTH PREFIX (type byte + body) at 1 MiB:
		// maxFrameBody exactly is the largest legal frame; one past it is
		// refused before the body is read or allocated.
		{"one past the 1 MiB cap", hdr(maxFrameBody + 1), ErrFrameOversized},
		{"max uint32 length", hdr(^uint32(0)), ErrFrameOversized},
		{"truncated body", append(hdr(10), frameSubmit, 'x'), ErrFrameTruncated},
		{"type byte only, body missing", append(hdr(5), frameVerdict), ErrFrameTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrame(tc.in)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadFrameCapBoundary pins both sides of the 1 MiB cap: a frame
// whose length prefix is exactly maxFrameBody decodes, one byte more is
// ErrFrameOversized (covered above).
func TestReadFrameCapBoundary(t *testing.T) {
	body := make([]byte, maxFrameBody-1) // + 1 type byte = exactly the cap
	typ, got, err := readFrame(frameBytes(frameVerdict, body))
	if err != nil {
		t.Fatalf("frame at exactly the cap refused: %v", err)
	}
	if typ != frameVerdict || len(got) != len(body) {
		t.Fatalf("typ %d body %d, want %d/%d", typ, len(got), frameVerdict, len(body))
	}
}

// TestReadFrameReusesBuffer: consecutive frames on one reader come out
// whole and in order even though each body aliases the reused buffer.
func TestReadFrameReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	fw := &frameWriter{w: &stream}
	fw.send(frameVerdict, verdictMsg{ID: 1, Verdict: "clean", Err: strings.Repeat("e", 300)}.appendBody)
	fw.send(frameAccept, acceptMsg{ID: 2}.appendBody)
	fw.send(frameVerdict, verdictMsg{ID: 3, Verdict: "deadlock"}.appendBody)
	fr := newFrameReader(&stream)
	var got []verdictMsg
	for i := 0; i < 3; i++ {
		typ, body, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		if typ == frameVerdict {
			var v verdictMsg
			if err := v.decode(body); err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		}
	}
	if len(got) != 2 || got[0].Verdict != "clean" || len(got[0].Err) != 300 || got[1].ID != 3 || got[1].Verdict != "deadlock" {
		t.Fatalf("decoded %+v", got)
	}
	if _, _, err := fr.read(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// wireCodec is one frame type's codec, for tables over every type.
type wireCodec interface {
	appendBody([]byte) []byte
}

// roundTrip encodes msg, decodes the body into a fresh value of the
// same type, and returns it.
func roundTrip(t *testing.T, msg wireCodec) any {
	t.Helper()
	body := msg.appendBody(nil)
	out := reflect.New(reflect.TypeOf(msg))
	dec := out.Interface().(interface{ decode([]byte) error })
	if err := dec.decode(body); err != nil {
		t.Fatalf("%T: decode of its own encoding: %v", msg, err)
	}
	return out.Elem().Interface()
}

// TestFrameRoundTrip: every frame type decodes to exactly what was
// encoded, at zero values and at the extremes of every field.
func TestFrameRoundTrip(t *testing.T) {
	long := strings.Repeat("é", 70_000) // multi-byte length prefix
	trace := []byte{0, 0xff, '\n', 0x80, 7}
	msgs := []wireCodec{
		helloMsg{},
		helloMsg{Version: ProtocolVersion, Key: "gold-key"},
		helloMsg{Version: math.MaxUint64, Key: long},
		helloAckMsg{},
		helloAckMsg{Version: ProtocolVersion, Tenant: "gold"},
		helloAckMsg{Version: math.MaxUint64, Tenant: long, Err: "unknown API key"},
		submitMsg{},
		submitMsg{ID: 1, Workload: "Sieve", Scale: "small", DeadlineMs: 50, Trace: true},
		submitMsg{ID: math.MaxUint64, Workload: long, Scale: "paper", DeadlineMs: math.MaxInt64},
		submitMsg{ID: 7, DeadlineMs: math.MinInt64},
		submitMsg{ID: 8, DeadlineMs: -1},
		acceptMsg{},
		acceptMsg{ID: math.MaxUint64},
		rejectMsg{},
		rejectMsg{ID: math.MaxUint64, Reason: RejectUnknownWorkload, Err: long},
		verdictMsg{},
		verdictMsg{ID: 9, Verdict: "deadlock", Err: "deadlock: cycle", QueueMs: 3, DurationMs: 12, Trace: trace},
		verdictMsg{ID: math.MaxUint64, Verdict: "clean", QueueMs: math.MaxInt64, DurationMs: math.MinInt64, Trace: []byte(long)},
		cancelMsg{},
		cancelMsg{ID: math.MaxUint64},
		goawayMsg{},
		goawayMsg{Reason: "draining"},
		pingMsg{},
		pingMsg{Seq: math.MaxUint64},
	}
	for _, msg := range msgs {
		if got := roundTrip(t, msg); !reflect.DeepEqual(got, msg) {
			t.Errorf("%T round trip:\n got %.200v\nwant %.200v", msg, got, msg)
		}
	}
}

// TestDecodeCorruptBody: a well-framed body that does not decode as the
// frame's schema is ErrFrameCorrupt, never a panic; bytes after the
// last known field are not corruption.
func TestDecodeCorruptBody(t *testing.T) {
	full := verdictMsg{ID: 300, Verdict: "clean", Err: "boom", QueueMs: 1, DurationMs: 2}.appendBody(nil)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		// The ID is a two-byte uvarint; the body ends after its first.
		{"truncated in mid-field", full[:1]},
		// The Verdict string's length prefix claims 100 bytes; 5 follow.
		{"string length past the end", append(binary.AppendUvarint(nil, 300), 100, 'c', 'l', 'e', 'a', 'n')},
		{"empty body", []byte{}},
	} {
		var msg verdictMsg
		if err := msg.decode(tc.body); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("%s: decode(% x) = %v, want ErrFrameCorrupt", tc.name, tc.body, err)
		}
	}
	// Trailing unknown bytes are NOT corruption: that is how the schema
	// versions forward, by appending fields.
	var msg acceptMsg
	if err := msg.decode(append(binary.AppendUvarint(nil, 3), 0x01, 0xff, 'x')); err != nil || msg.ID != 3 {
		t.Fatalf("forward-compatible body refused: %v", err)
	}
	var v verdictMsg
	if err := v.decode(append(full, 0xff, 0xff)); err != nil || v.Err != "boom" {
		t.Fatalf("forward-compatible verdict refused: %v", err)
	}
}

// TestFrameAllocs pins the per-frame allocation counts of the codec:
// encoding an accept or a verdict into the writer's reused buffer
// allocates nothing, reading and decoding an accept allocates nothing,
// and a verdict costs one allocation, its Verdict string.
func TestFrameAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var stream bytes.Buffer
	fw := &frameWriter{w: &stream}
	fr := newFrameReader(&stream)
	accept := acceptMsg{ID: 123456}
	verdict := verdictMsg{ID: 123456, Verdict: "clean", DurationMs: 1}
	encode := func(typ byte, enc func([]byte) []byte) float64 {
		return testing.AllocsPerRun(1000, func() {
			stream.Reset()
			if err := fw.send(typ, enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	decode := func(frame []byte, dec func(body []byte) error) float64 {
		return testing.AllocsPerRun(1000, func() {
			stream.Reset()
			stream.Write(frame)
			_, body, err := fr.read()
			if err == nil {
				err = dec(body)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := encode(frameAccept, accept.appendBody); got != 0 {
		t.Errorf("encode accept: %v allocs/frame, want 0", got)
	}
	if got := encode(frameVerdict, verdict.appendBody); got != 0 {
		t.Errorf("encode verdict: %v allocs/frame, want 0", got)
	}
	var a acceptMsg
	if got := decode(frameBytes(frameAccept, accept.appendBody(nil)), a.decode); got != 0 {
		t.Errorf("read+decode accept: %v allocs/frame, want 0", got)
	}
	var v verdictMsg
	if got := decode(frameBytes(frameVerdict, verdict.appendBody(nil)), v.decode); got != 1 {
		t.Errorf("read+decode verdict: %v allocs/frame, want 1 (the Verdict string)", got)
	}
}

// BenchmarkFrameRoundTrip is the per-frame cost of the codec without a
// socket: encode an accept and a verdict, write them, read them back
// through the conn's buffered reader and decode them.
func BenchmarkFrameRoundTrip(b *testing.B) {
	var stream bytes.Buffer
	fw := &frameWriter{w: &stream}
	fr := newFrameReader(&stream)
	accept := acceptMsg{ID: 123456}
	verdict := verdictMsg{ID: 123456, Verdict: "clean", DurationMs: 1}
	var a acceptMsg
	var v verdictMsg
	b.ReportAllocs()
	for b.Loop() {
		stream.Reset()
		fw.send(frameAccept, accept.appendBody)
		fw.send(frameVerdict, verdict.appendBody)
		_, body, err := fr.read()
		if err == nil {
			err = a.decode(body)
		}
		if err == nil {
			_, body, err = fr.read()
		}
		if err == nil {
			err = v.decode(body)
		}
		if err != nil || v.ID != verdict.ID {
			b.Fatalf("round trip: %v (%+v)", err, v)
		}
	}
}

// TestGarbageHandshakeBytes dials a real server socket, writes garbage
// instead of a hello frame, and requires the server to cut the conn
// with no panic and no hang — the decoded "length" of random bytes is
// usually absurd, which is exactly what ErrFrameOversized is for.
func TestGarbageHandshakeBytes(t *testing.T) {
	f := newTestFront(t)
	defer f.Shutdown(context.Background())

	for _, garbage := range [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), // a lost HTTP client
		{0xff, 0xff, 0xff, 0xff, 0x00},              // max length prefix
		{0x00, 0x00, 0x00, 0x00},                    // zero length prefix
	} {
		nc, err := net.Dial("tcp", f.Addr())
		if err != nil {
			t.Fatal(err)
		}
		nc.Write(garbage)
		// The server must close; our read unblocks with EOF/reset well
		// inside the handshake timeout.
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 64)
		if _, err := nc.Read(buf); err == nil {
			// A helloAck refusal would also be acceptable — but garbage
			// cannot decode as a hello, so the server answers nothing.
			t.Fatalf("server replied to garbage %q", garbage)
		}
		nc.Close()
	}
}

// TestV1JSONHelloRefused: a version-1 client, whose hello body is JSON,
// is refused by version and cut, not misparsed: the first body byte '{'
// reads as version 123.
func TestV1JSONHelloRefused(t *testing.T) {
	f := newTestFront(t)
	defer f.Shutdown(context.Background())

	nc, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	nc.Write(frameBytes(frameHello, []byte(`{"version":1,"key":"gold-key"}`)))

	fr := newFrameReader(nc)
	typ, body, err := fr.read()
	if err != nil {
		t.Fatalf("no refusal before the cut: %v", err)
	}
	var ack helloAckMsg
	if typ != frameHelloAck || ack.decode(body) != nil {
		t.Fatalf("got frame %d (% x), want a helloAck", typ, body)
	}
	if ack.Tenant != "" || !strings.Contains(ack.Err, "unsupported protocol version 123") {
		t.Fatalf("ack = %+v, want a version refusal", ack)
	}
	if typ, _, err := fr.read(); err == nil {
		t.Fatalf("server sent frame %d after refusing the hello; want the conn cut", typ)
	}
}

// FuzzReadFrame: arbitrary bytes through the frame reader must produce
// a frame or a typed error — never a panic — and a frame that decodes
// must re-encode to the same wire bytes it came from (round-trip
// stability of the framing, not of the bodies).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameBytes(frameSubmit, submitMsg{ID: 1, Workload: "Sieve"}.appendBody(nil)))
	f.Add(frameBytes(framePing, pingMsg{Seq: 9}.appendBody(nil)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := readFrame(data)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF),
				errors.Is(err, ErrFrameTruncated),
				errors.Is(err, ErrFrameOversized):
			default:
				t.Fatalf("untyped readFrame error: %v", err)
			}
			return
		}
		round := frameBytes(typ, body)
		if !bytes.Equal(round, data[:len(round)]) {
			t.Fatalf("frame did not round-trip: %q -> %q", data[:len(round)], round)
		}
	})
}

// fuzzDecode checks one arbitrary body against a schema: it decodes to
// a value or to ErrFrameCorrupt, never a panic, and a value that
// decodes re-encodes to a body that decodes to the same value.
func fuzzDecode[M any, P interface {
	*M
	wireCodec
	decode([]byte) error
}](t *testing.T, body []byte) {
	var msg M
	if err := P(&msg).decode(body); err != nil {
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	var again M
	if err := P(&again).decode(P(&msg).appendBody(nil)); err != nil || !reflect.DeepEqual(again, msg) {
		t.Fatalf("re-encoding %+v decoded to %+v, %v", msg, again, err)
	}
}

// FuzzDecodeSubmit: arbitrary bodies through the submit schema, the
// decoder handleSubmit trusts with network input.
func FuzzDecodeSubmit(f *testing.F) {
	f.Add(submitMsg{ID: 1, Workload: "Sieve", DeadlineMs: 5, Trace: true}.appendBody(nil))
	f.Add([]byte(`{"id":1,"workload":"Sieve","deadline_ms":5}`))
	f.Add([]byte{0x80})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(fuzzDecode[submitMsg])
}

// FuzzDecodeVerdict: arbitrary bodies through the verdict schema, the
// decoder the client's read loop trusts with network input.
func FuzzDecodeVerdict(f *testing.F) {
	f.Add(verdictMsg{ID: 9, Verdict: "deadlock", Err: "cycle", QueueMs: -1, DurationMs: 3, Trace: []byte("t1 block p2\n")}.appendBody(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 5, 'c', 'l'})
	f.Add(bytes.Repeat([]byte{0xff}, 11))
	f.Fuzz(fuzzDecode[verdictMsg])
}
