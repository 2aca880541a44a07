// Package front is the network serving front-end: a compact framed-TCP
// protocol (and matching Go client) that exposes the in-process serving
// pool — session submission by registered workload name, streamed
// verdicts, deadline-aware admission, per-tenant weighted fairness — to
// remote callers, keyed by per-tenant API keys.
//
// Every frame is a 4-byte big-endian length, one frame-type byte, and a
// binary body; the length counts the type byte and is capped at 1 MiB.
// A body is its message's fields in a fixed order, with no tags:
//
//	unsigned integer   uvarint (encoding/binary)
//	signed integer     zig-zag varint (DeadlineMs, QueueMs, DurationMs)
//	bool               one uvarint, 0 or 1
//	string, []byte     uvarint length, then the bytes
//
// A decoder reads the fields it knows and ignores any bytes after them,
// so the schema versions forward by appending fields. A body that ends
// inside a field, a length that runs past the body, or a bool that is
// neither 0 nor 1 is ErrFrameCorrupt and never a panic. The version
// handshake (hello/helloAck) pins the schema. The version is hello's
// first field, so a server can always read a client's version, even one
// whose later fields it cannot parse, and refuse it with an explanatory
// ack instead of misparsing it.
//
// The codec is hand-written because the round trip is the front's hot
// path: with JSON bodies, encoding/json took 18.6% of the CPU of a closed
// loop of small sessions over loopback. Each end reads through one
// bufio.Reader per conn into a reused body buffer, and each frame is
// appended into its writer's reused buffer and written with one Write
// (an accept and its verdict may share that Write, see below).
// Encoding a frame allocates nothing, and decoding allocates only the
// strings and trace bytes the decoder copies out (TestFrameAllocs pins
// the counts). On a 2-vCPU VM this took the front-closed benchmark from
// 10.8k to 14.8k sessions per CPU-second, median of 11 paired runs.
//
// Frame flow, client's view:
//
//	C→S  hello{version, key}            once, first frame on the conn
//	S→C  helloAck{version, tenant}      or errors and closes
//	C→S  submit{id, workload, ...}      any time after the ack
//	S→C  accept{id} | reject{id, ...}   admission answer (accept may be
//	                                    deferred, see below)
//	S→C  verdict{id, ...}               when the session completes, never
//	                                    before its accept
//	C→S  cancel{id}                     best-effort, any time
//	S→C  goaway{reason}                 server is draining; no new submits
//	*→*  ping{seq} / pong{seq}          keepalive, either direction
//
// The submit id is chosen by the client and scopes the conversation: all
// server frames about a session carry it back. A reject, and the accept
// of a workload not marked short, are sent from the read loop before the
// next submit is read. A workload whose last body ran for under
// shortBody (100 µs) has its accept deferred: its session's completion
// hook writes the accept and the verdict in one Write, accept first, and
// if the session outlives shortBody a timer writes the accept alone and
// the hook the verdict after it. So accepts of short sessions arrive in
// completion order, not submission order, and the client matches every
// frame to its session by id. Verdicts arrive in completion order,
// interleaved. Either way the client reads a session's accept first.
//
// A traced verdict's trace bytes are a stream in internal/trace's binary
// format, which the client decodes and verifies on its own
// (trace.ReadAll, trace.Verify).
//
// Ping/pong is the liveness layer: either side may send a ping at any
// time after the handshake and the peer answers with a pong echoing the
// sequence number. The client's heartbeat loop uses it to detect a dead
// or wedged server (see DialOptions.Heartbeat); the server's idle
// reaper treats ANY inbound frame — pings included — as proof of life,
// so a heartbeating client survives an idle timeout and a silent one
// does not.
package front

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ProtocolVersion is the wire schema version sent in the hello
// handshake. Servers refuse clients with a different version. Version
// 3 carries a verdict's trace in the binary trace format, where
// version 2 carried rendered text.
const ProtocolVersion = 3

// maxFrameBody bounds a frame's decoded length: nothing in the schema
// legitimately approaches it, so anything larger is a corrupt stream or
// a hostile peer, and the conn is cut rather than buffered.
const maxFrameBody = 1 << 20

// keepBufCap is the largest frame buffer a reader or writer keeps for
// reuse. A rare large frame (a verdict carrying trace bytes) is served
// from a one-off buffer, so one such frame does not pin up to 1 MiB per
// conn for the conn's lifetime.
const keepBufCap = 64 << 10

// Frame types.
const (
	frameHello    byte = 1
	frameHelloAck byte = 2
	frameSubmit   byte = 3
	frameAccept   byte = 4
	frameReject   byte = 5
	frameVerdict  byte = 6
	frameCancel   byte = 7
	frameGoaway   byte = 8
	framePing     byte = 9
	framePong     byte = 10
)

// Typed wire-level errors. Every malformed input a peer can send — a
// length prefix past the cap, a stream that ends inside a frame, a body
// that does not decode as its frame type, a frame type this version does
// not speak — maps to exactly one of these sentinels, so the supervision
// and retry layers classify transport failures with errors.Is instead
// of string matching, and fuzzing can assert "typed error, never a
// panic or a hang".
var (
	// ErrFrameOversized: the length prefix exceeds maxFrameBody (or is
	// zero). The conn is cut without reading the body — a hostile length
	// must not make the reader allocate or block for it. A writer asked
	// to send such a frame returns it without writing anything.
	ErrFrameOversized = errors.New("front: frame length out of range")
	// ErrFrameTruncated: the stream ended inside a frame (header or
	// body). Distinct from a clean EOF between frames.
	ErrFrameTruncated = errors.New("front: truncated frame")
	// ErrFrameCorrupt: the frame body failed to decode as the frame
	// type's schema.
	ErrFrameCorrupt = errors.New("front: corrupt frame body")
	// ErrUnknownFrame: a frame type this protocol version does not
	// speak.
	ErrUnknownFrame = errors.New("front: unknown frame type")
	// ErrWriteTimeout: a frame write missed its deadline — the peer has
	// stalled (dead TCP window, wedged reader). The connection is
	// unusable after it: the frame may be partially on the wire.
	ErrWriteTimeout = errors.New("front: frame write timed out")
)

// helloMsg opens a connection: protocol version plus the tenant API key.
type helloMsg struct {
	Version uint64
	Key     string
}

// helloAckMsg accepts a connection and names the tenant the key mapped
// to; a non-empty Err refuses it (bad key, version skew) and the server
// closes the conn after sending.
type helloAckMsg struct {
	Version uint64
	Tenant  string
	Err     string
}

// submitMsg asks for one session of a registered workload. DeadlineMs,
// when positive, is a relative deadline the server turns into the
// session ctx deadline (relative, not absolute, so clock skew between
// client and server does not corrupt the budget). Trace requests the
// session's event window back with the verdict.
type submitMsg struct {
	ID         uint64
	Workload   string
	Scale      string
	DeadlineMs int64
	Trace      bool
}

// acceptMsg acknowledges admission: the session is queued or running.
type acceptMsg struct {
	ID uint64
}

// Reject reasons carried in rejectMsg.Reason.
const (
	RejectDeadline        = "deadline"         // deadline-aware admission shed it
	RejectSaturated       = "saturated"        // tenant queue full
	RejectDraining        = "draining"         // server is shutting down
	RejectUnknownWorkload = "unknown_workload" // no such registry entry
)

// rejectMsg refuses a submit synchronously.
type rejectMsg struct {
	ID     uint64
	Reason string
	Err    string
}

// verdictMsg reports a completed session. Trace, when the submit asked
// for it, is the session's event window as a binary trace stream (see
// trace.AppendWindow), cut to the newest events that fit the frame.
type verdictMsg struct {
	ID         uint64
	Verdict    string
	Err        string
	QueueMs    int64
	DurationMs int64
	Trace      []byte
}

// cancelMsg asks the server to cancel a submitted session. Best-effort:
// the session still completes with a verdict (normally "canceled").
type cancelMsg struct {
	ID uint64
}

// goawayMsg tells the client the server is draining: submits after it
// are rejected, verdicts for in-flight sessions still arrive.
type goawayMsg struct {
	Reason string
}

// pingMsg/pongMsg carry the keepalive sequence number; a pong echoes
// the ping's Seq so the sender can count outstanding (unanswered)
// heartbeats without matching timers to frames.
type pingMsg struct {
	Seq uint64
}

// Encoders: each appends its message's body to b, fields in schema
// order. They are passed to frameWriter.send as method values.

func (m helloMsg) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Version)
	return appendString(b, m.Key)
}

func (m helloAckMsg) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Version)
	b = appendString(b, m.Tenant)
	return appendString(b, m.Err)
}

func (m submitMsg) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, m.ID)
	b = appendString(b, m.Workload)
	b = appendString(b, m.Scale)
	b = binary.AppendVarint(b, m.DeadlineMs)
	return appendBool(b, m.Trace)
}

func (m acceptMsg) appendBody(b []byte) []byte { return binary.AppendUvarint(b, m.ID) }

func (m rejectMsg) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, m.ID)
	b = appendString(b, m.Reason)
	return appendString(b, m.Err)
}

func (m verdictMsg) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, m.ID)
	b = appendString(b, m.Verdict)
	b = appendString(b, m.Err)
	b = binary.AppendVarint(b, m.QueueMs)
	b = binary.AppendVarint(b, m.DurationMs)
	b = binary.AppendUvarint(b, uint64(len(m.Trace)))
	return append(b, m.Trace...)
}

func (m cancelMsg) appendBody(b []byte) []byte { return binary.AppendUvarint(b, m.ID) }

func (m goawayMsg) appendBody(b []byte) []byte { return appendString(b, m.Reason) }

func (m pingMsg) appendBody(b []byte) []byte { return binary.AppendUvarint(b, m.Seq) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Decoders: each reads its message's fields from a frame body in schema
// order and ignores trailing bytes. Strings and trace bytes are copied
// out, so the body buffer can be reused for the next frame.

func (m *helloMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.Version = d.uvarint()
	m.Key = d.str()
	return d.done(frameHello)
}

func (m *helloAckMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.Version = d.uvarint()
	m.Tenant = d.str()
	m.Err = d.str()
	return d.done(frameHelloAck)
}

func (m *submitMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.ID = d.uvarint()
	m.Workload = d.str()
	m.Scale = d.str()
	m.DeadlineMs = d.varint()
	m.Trace = d.bool()
	return d.done(frameSubmit)
}

func (m *acceptMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.ID = d.uvarint()
	return d.done(frameAccept)
}

func (m *rejectMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.ID = d.uvarint()
	m.Reason = d.str()
	m.Err = d.str()
	return d.done(frameReject)
}

func (m *verdictMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.ID = d.uvarint()
	m.Verdict = d.str()
	m.Err = d.str()
	m.QueueMs = d.varint()
	m.DurationMs = d.varint()
	if tr := d.bytes(); len(tr) > 0 {
		m.Trace = append([]byte(nil), tr...)
	}
	return d.done(frameVerdict)
}

func (m *cancelMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.ID = d.uvarint()
	return d.done(frameCancel)
}

func (m *goawayMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.Reason = d.str()
	return d.done(frameGoaway)
}

func (m *pingMsg) decode(body []byte) error {
	d := decoder{b: body}
	m.Seq = d.uvarint()
	return d.done(framePing)
}

// decoder walks one frame body. The first short or inconsistent field
// marks it bad; every later read returns the zero value, and done
// reports the failure as ErrFrameCorrupt.
type decoder struct {
	b   []byte
	bad string // what failed first; "" while the body is sound
}

func (d *decoder) uvarint() uint64 {
	if d.bad != "" {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = "bad uvarint"
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.bad != "" {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad = "bad varint"
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) bool() bool {
	switch d.uvarint() {
	case 0:
		return false
	case 1:
		return true
	}
	d.bad = "bool out of range"
	return false
}

// bytes returns a length-prefixed field aliasing the body.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.bad != "" {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.bad = fmt.Sprintf("length %d runs past the body's remaining %d bytes", n, len(d.b))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) done(typ byte) error {
	if d.bad != "" {
		return fmt.Errorf("%w: frame %d: %s", ErrFrameCorrupt, typ, d.bad)
	}
	return nil
}

// frameWriter serializes frames onto one conn. Writes come from the read
// loop (reject/pong, and accepts not deferred), from shortBody timers (a
// deferred accept sent alone) and from session completion hooks (a
// verdict, with its accept when nothing sent that yet), so every write
// takes the mutex: a frame is never interleaved inside another. Frames
// are encoded under the mutex into buf, which is reused across sends. An
// accept sent alone is claimed while its writer holds the mutex, so a
// hook that finds it claimed writes its verdict after the accept.
//
// When nc and timeout are set, every Write arms a write deadline: a peer
// that has stopped draining its socket fails the write with
// ErrWriteTimeout after timeout instead of wedging the sender forever.
// The deadline covers the whole Write under the mutex, so one stalled
// peer delays other writers on the SAME conn at most timeout — and the
// conn is declared dead at the first timeout, never retried (the frame
// boundary is gone).
type frameWriter struct {
	mu      sync.Mutex
	w       io.Writer
	nc      net.Conn      // optional: write-deadline support
	timeout time.Duration // 0 = no write deadline
	buf     []byte
}

// send writes one frame of type typ whose body appendBody appends (a
// message's appendBody method value). A frame longer than maxFrameBody,
// which the peer's reader would refuse, is not written: send returns
// ErrFrameOversized and the conn stays usable.
func (fw *frameWriter) send(typ byte, appendBody func([]byte) []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.sendLocked(typ, appendBody)
}

// sendLocked is send for a caller that holds fw.mu.
func (fw *frameWriter) sendLocked(typ byte, appendBody func([]byte) []byte) error {
	buf, err := fw.frame(fw.buf[:0], typ, appendBody)
	if err != nil {
		return err
	}
	return fw.write(buf, typ)
}

// sendPair writes two frames, in order, with one Write. If either frame
// is longer than maxFrameBody, nothing is written: sendPair returns
// ErrFrameOversized and the conn stays usable.
func (fw *frameWriter) sendPair(typ1 byte, body1 func([]byte) []byte, typ2 byte, body2 func([]byte) []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	buf, err := fw.frame(fw.buf[:0], typ1, body1)
	if err == nil {
		buf, err = fw.frame(buf, typ2, body2)
	}
	if err != nil {
		return err
	}
	return fw.write(buf, typ2)
}

// frame appends one frame to buf, keeping the grown buffer for reuse
// unless it is past keepBufCap. Caller holds fw.mu.
func (fw *frameWriter) frame(buf []byte, typ byte, appendBody func([]byte) []byte) ([]byte, error) {
	start := len(buf)
	buf = appendBody(append(buf, 0, 0, 0, 0, typ))
	if cap(buf) <= keepBufCap {
		fw.buf = buf
	}
	n := len(buf) - start - 4
	if n > maxFrameBody {
		return nil, fmt.Errorf("%w: frame %d not sent: length %d (cap %d)", ErrFrameOversized, typ, n, maxFrameBody)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// write puts encoded frames on the conn under the write deadline; typ
// (the last frame's type) only labels a timeout. Caller holds fw.mu.
func (fw *frameWriter) write(buf []byte, typ byte) error {
	if fw.nc != nil && fw.timeout > 0 {
		fw.nc.SetWriteDeadline(time.Now().Add(fw.timeout))
	}
	if _, err := fw.w.Write(buf); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return fmt.Errorf("%w after %v (frame %d): %v", ErrWriteTimeout, fw.timeout, typ, err)
		}
		return err
	}
	return nil
}

// frameReader reads frames off one conn through one bufio.Reader, from
// the handshake on (the buffer may hold bytes past the frame just read,
// so nothing else may read the conn). The caller owns read deadlines on
// the underlying conn.
type frameReader struct {
	br  *bufio.Reader
	hdr [4]byte
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r)}
}

// read reads one length-prefixed frame. The body aliases the reader's
// buffer and is valid only until the next read. Malformed input maps to
// the typed sentinels above; a clean EOF between frames passes through
// as io.EOF.
func (fr *frameReader) read() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: stream ended inside the header", ErrFrameTruncated)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n < 1 || n > maxFrameBody {
		return 0, nil, fmt.Errorf("%w: length %d (cap %d)", ErrFrameOversized, n, maxFrameBody)
	}
	buf := fr.buf
	if int(n) > cap(buf) {
		buf = make([]byte, n)
		if n <= keepBufCap {
			fr.buf = buf
		}
	}
	buf = buf[:n]
	if got, err := io.ReadFull(fr.br, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: %d of %d body bytes: %v", ErrFrameTruncated, got, n, err)
	}
	return buf[0], buf[1:], nil
}
