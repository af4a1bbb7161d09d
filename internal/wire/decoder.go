package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"unijoin/internal/geom"
)

// ErrCorrupt is the class every malformed-stream error matches under
// errors.Is: bad magic, unsupported version, unknown frame type,
// oversized or misaligned payloads, checksum mismatches, truncation.
// The serving layers map it to the API's internal-error class
// (client.ErrInternal) — a corrupt stream is a broken peer, not a bad
// request.
var ErrCorrupt = errors.New("wire: corrupt frame stream")

// The concrete corruption errors, each matching ErrCorrupt.
var (
	ErrBadMagic   = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrCorrupt)
	ErrBadType    = fmt.Errorf("%w: unknown frame type", ErrCorrupt)
	ErrTooLarge   = fmt.Errorf("%w: payload length exceeds MaxPayload", ErrCorrupt)
	ErrChecksum   = fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	ErrTruncated  = fmt.Errorf("%w: truncated frame", ErrCorrupt)
	ErrMisaligned = fmt.Errorf("%w: payload size not a multiple of the entry size", ErrCorrupt)
)

// parseHeader validates the fixed header fields and returns the frame
// type and payload length. It never reads past HeaderSize bytes.
func parseHeader(hdr []byte) (Type, int, error) {
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return 0, 0, ErrBadMagic
	}
	if hdr[offVersion] != Version {
		return 0, 0, fmt.Errorf("%w: got %d, speak %d", ErrBadVersion, hdr[offVersion], Version)
	}
	t := Type(hdr[offType])
	if !t.valid() {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadType, hdr[offType])
	}
	n := binary.LittleEndian.Uint32(hdr[offLen:])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	return t, int(n), nil
}

// Frame is one decoded frame. Payload aliases the decoder's internal
// buffer and is valid only until the next call to Next.
type Frame struct {
	Type    Type
	Payload []byte
}

// Pairs appends the frame's packed join pairs to dst and returns the
// extended slice. The frame must be a PAIRS frame.
func (f Frame) Pairs(dst [][2]uint32) ([][2]uint32, error) {
	if f.Type != TypePairs {
		return dst, fmt.Errorf("%w: Pairs on a %s frame", ErrBadType, f.Type)
	}
	if len(f.Payload)%PairSize != 0 {
		return dst, fmt.Errorf("%w: %d bytes in a pairs frame", ErrMisaligned, len(f.Payload))
	}
	for off := 0; off < len(f.Payload); off += PairSize {
		dst = append(dst, [2]uint32{
			binary.LittleEndian.Uint32(f.Payload[off:]),
			binary.LittleEndian.Uint32(f.Payload[off+4:]),
		})
	}
	return dst, nil
}

// Records appends the frame's packed 20-byte records to dst and
// returns the extended slice. The frame must be a RECORDS frame.
func (f Frame) Records(dst []geom.Record) ([]geom.Record, error) {
	if f.Type != TypeRecords {
		return dst, fmt.Errorf("%w: Records on a %s frame", ErrBadType, f.Type)
	}
	if len(f.Payload)%RecordSize != 0 {
		return dst, fmt.Errorf("%w: %d bytes in a records frame", ErrMisaligned, len(f.Payload))
	}
	for off := 0; off < len(f.Payload); off += RecordSize {
		dst = append(dst, geom.DecodeRecord(f.Payload[off:]))
	}
	return dst, nil
}

// Decoder reads and fully validates a frame stream: header checks,
// payload bounds, and the CRC of every payload. It is the consuming
// end of the transport — clients decode through it; a relaying router
// uses Scanner instead and leaves payloads opaque.
type Decoder struct {
	s Scanner
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{s: Scanner{r: r}} }

// Next reads one frame: Scanner.Next, then Verify. io.EOF is returned
// untouched at a clean frame boundary; a stream that stops mid-frame
// returns ErrTruncated. The returned frame's payload is valid only
// until the next call.
func (d *Decoder) Next() (Frame, error) {
	_, raw, err := d.s.Next()
	if err != nil {
		return Frame{}, err
	}
	return Verify(raw)
}

// Scanner reads whole raw frames without touching their payloads: it
// validates only the 12-byte header (magic, version, type, length
// bound) to find frame boundaries, then hands back the frame's exact
// bytes, header included. This is the router's zero-decode relay path
// — the payload CRC passes through unverified and unmodified, so the
// client's end-to-end check still guards the whole journey while the
// router's per-pair cost is a memcpy.
type Scanner struct {
	r   io.Reader
	buf []byte
}

// NewScanner returns a scanner reading from r.
func NewScanner(r io.Reader) *Scanner { return &Scanner{r: r} }

// Next reads one raw frame. The returned bytes (header + payload) are
// valid only until the next call. io.EOF is returned at a clean frame
// boundary; mid-frame streams end with ErrTruncated.
func (s *Scanner) Next() (Type, []byte, error) {
	if cap(s.buf) < HeaderSize {
		s.buf = make([]byte, 0, 4096)
	}
	s.buf = s.buf[:HeaderSize]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: mid-header: %v", ErrTruncated, err)
	}
	t, n, err := parseHeader(s.buf)
	if err != nil {
		return 0, nil, err
	}
	if cap(s.buf) < HeaderSize+n {
		grown := make([]byte, HeaderSize+n)
		copy(grown, s.buf[:HeaderSize])
		s.buf = grown
	}
	s.buf = s.buf[:HeaderSize+n]
	if _, err := io.ReadFull(s.r, s.buf[HeaderSize:]); err != nil {
		return 0, nil, fmt.Errorf("%w: mid-payload: %v", ErrTruncated, err)
	}
	return t, s.buf, nil
}

// Verify checks a raw frame's payload CRC against its header and
// returns the frame, its payload aliasing raw — the check a process
// applies to the frames it actually parses (a router's SUMMARY and
// ERROR, every frame an NDJSON front renders) while relaying
// everything else unread.
func Verify(raw []byte) (Frame, error) {
	if len(raw) < HeaderSize {
		return Frame{}, ErrTruncated
	}
	f := Frame{Type: Type(raw[offType]), Payload: raw[HeaderSize:]}
	if got, want := crc32.ChecksumIEEE(f.Payload), binary.LittleEndian.Uint32(raw[offCRC:]); got != want {
		return Frame{}, fmt.Errorf("%w: got %08x, header says %08x", ErrChecksum, got, want)
	}
	return f, nil
}

// PeekType reads a raw frame's type byte and verifies nothing — the
// frame→frame relay path, which leaves the CRC to the end client. A
// slice short of a header has no type (0, which no frame carries).
func PeekType(raw []byte) Type {
	if len(raw) < HeaderSize {
		return 0
	}
	return Type(raw[offType])
}
