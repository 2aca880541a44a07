package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// The binary trace format: a 5-byte header ("PTRC" + format version)
// followed by varint-packed records until EOF.
//
//	record := kind(1 byte)
//	          uvarint(seq) uvarint(taskID) uvarint(promiseID) uvarint(arg)
//	          str(taskName) str(promiseLabel) str(detail)
//	str    := uvarint(len) bytes
//
// Records carry absolute sequence numbers, so a stream remains decodable
// and totally orderable regardless of the batch interleaving the
// collector produced. Default task/promise names are stored as empty
// strings and re-rendered on display, which keeps hot-path emission free
// of Sprintf and the common record under ~10 bytes.

const formatVersion = 1

var magic = [4]byte{'P', 'T', 'R', 'C'}

// maxStringLen bounds decoded strings so a corrupt or hostile stream
// cannot ask for an absurd allocation.
const maxStringLen = 1 << 24

// ErrBadHeader is returned when a stream does not start with the trace
// magic or carries an unknown format version.
var ErrBadHeader = errors.New("trace: bad header (not a trace stream, or unknown version)")

// AppendEvent appends the binary encoding of e to buf and returns the
// extended slice. Capacity for the whole record is reserved up front and
// the fields are written by index (binary.PutUvarint), not byte-by-byte
// appends — encoding is on the traced hot path's critical cost line (the
// staging fast path delivers straight into the encoder), and the
// append-per-byte version of this function was the single largest line
// item in the traced set/get profile.
func AppendEvent(buf []byte, e Event) []byte {
	const maxFixed = 1 + 7*binary.MaxVarintLen64 // kind + 4 ids + 3 string lengths
	need := maxFixed + len(e.TaskName) + len(e.PromiseLabel) + len(e.Detail)
	if free := cap(buf) - len(buf); free < need {
		grown := make([]byte, len(buf), cap(buf)*2+need)
		copy(grown, buf)
		buf = grown
	}
	b := buf[:cap(buf)]
	i := len(buf)
	b[i] = byte(e.Kind)
	i++
	i += binary.PutUvarint(b[i:], e.Seq)
	i += binary.PutUvarint(b[i:], e.TaskID)
	i += binary.PutUvarint(b[i:], e.PromiseID)
	i += binary.PutUvarint(b[i:], e.Arg)
	i += binary.PutUvarint(b[i:], uint64(len(e.TaskName)))
	i += copy(b[i:], e.TaskName)
	i += binary.PutUvarint(b[i:], uint64(len(e.PromiseLabel)))
	i += copy(b[i:], e.PromiseLabel)
	i += binary.PutUvarint(b[i:], uint64(len(e.Detail)))
	i += copy(b[i:], e.Detail)
	return b[:i]
}

// AppendHeader appends the stream header to buf.
func AppendHeader(buf []byte) []byte {
	return append(append(buf, magic[:]...), formatVersion)
}

// headerLen is the length of the stream header.
const headerLen = len(magic) + 1

// AppendWindow appends evs, a Seq-sorted window such as
// MemSink.Snapshot returns, to buf as a whole stream: the header, then
// every record. If that stream is longer than limit bytes, it keeps only
// the newest events that fit, behind one leading gap record whose Arg
// counts every missing event: those cut here and those a gap record
// leading evs already counted. A window whose header and gap record
// alone exceed limit comes back as just those two.
func AppendWindow(buf []byte, evs []Event, limit int) []byte {
	start := len(buf)
	buf = AppendHeader(buf)
	for _, e := range evs {
		buf = AppendEvent(buf, e)
	}
	if len(buf)-start <= limit {
		return buf
	}
	var missing uint64
	if len(evs) > 0 && evs[0].Kind == KindGap {
		missing, evs = evs[0].Arg, evs[1:]
	}
	// Size the gap record for the largest count it can carry, then keep
	// the longest suffix of records that fits behind it.
	room := limit - headerLen - len(AppendEvent(nil, gapRecord(missing+uint64(len(evs)))))
	keep, tail := len(evs), 0
	var rec []byte
	for ; keep > 0; keep-- {
		rec = AppendEvent(rec[:0], evs[keep-1])
		if tail+len(rec) > room {
			break
		}
		tail += len(rec)
	}
	cut := AppendEvent(AppendHeader(buf[:start:start]), gapRecord(missing+uint64(keep)))
	return append(cut, buf[len(buf)-tail:]...)
}

// Decoder reads events from a binary trace stream.
type Decoder struct {
	r      *bufio.Reader
	header bool
}

// NewDecoder wraps r. The header is consumed by the first Decode call.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Decode returns the next event, or io.EOF at a clean end of stream.
func (d *Decoder) Decode() (Event, error) {
	var e Event
	if !d.header {
		var h [5]byte
		if _, err := io.ReadFull(d.r, h[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = ErrBadHeader
			}
			return e, err
		}
		if [4]byte(h[:4]) != magic || h[4] != formatVersion {
			return e, ErrBadHeader
		}
		d.header = true
	}
	kind, err := d.r.ReadByte()
	if err != nil {
		return e, err // io.EOF here is the clean end of stream
	}
	e.Kind = Kind(kind)
	// Field reads are unrolled (no pointer slices into e) so decoding a
	// record stays allocation-free beyond its strings.
	if e.Seq, err = binary.ReadUvarint(d.r); err != nil {
		return e, truncated(err)
	}
	if e.TaskID, err = binary.ReadUvarint(d.r); err != nil {
		return e, truncated(err)
	}
	if e.PromiseID, err = binary.ReadUvarint(d.r); err != nil {
		return e, truncated(err)
	}
	if e.Arg, err = binary.ReadUvarint(d.r); err != nil {
		return e, truncated(err)
	}
	if e.TaskName, err = d.readString(); err != nil {
		return e, truncated(err)
	}
	if e.PromiseLabel, err = d.readString(); err != nil {
		return e, truncated(err)
	}
	if e.Detail, err = d.readString(); err != nil {
		return e, truncated(err)
	}
	return e, nil
}

func (d *Decoder) readString() (string, error) {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("trace: string length %d exceeds limit", n)
	}
	// The buffer grows as the bytes arrive, at most doubling per read, so
	// a declared length costs memory only once the stream backs it.
	buf := make([]byte, 0, min(n, 512))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(len(buf)))))
		}
		m, err := io.ReadFull(d.r, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

// truncated converts a mid-record EOF into an explicit error: EOF is
// clean only between records.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errors.New("trace: truncated record")
	}
	return err
}

// ReadAll decodes an entire stream and returns the events sorted into
// total (Seq) order.
func ReadAll(r io.Reader) ([]Event, error) {
	d := NewDecoder(r)
	var out []Event
	for {
		e, err := d.Decode()
		if err == io.EOF {
			SortBySeq(out)
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// ReadFile decodes the trace file at path into Seq-sorted events.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := ReadAll(f)
	if err != nil {
		return evs, fmt.Errorf("trace: %s: %w", path, err)
	}
	return evs, nil
}
