package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"sync"

	"unijoin/internal/geom"
)

// Frame-format constants; see doc.go for the full layout.
const (
	// Magic0 and Magic1 open every frame ("SJ").
	Magic0 = 0x53
	Magic1 = 0x4A
	// Version is the protocol version this package speaks.
	Version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 12
	// Header field offsets: magic (2 bytes), version, type, payload
	// length (uint32 LE), payload CRC32 (uint32 LE). Unexported: other
	// packages read a raw frame through Verify or PeekType, so the
	// layout has one definition and header arithmetic elsewhere does
	// not compile.
	offVersion = 2
	offType    = 3
	offLen     = 4
	offCRC     = 8
	// MaxPayload caps one frame's payload. A decoder rejects larger
	// length fields before allocating anything.
	MaxPayload = 1 << 20
	// PairSize and RecordSize are the packed entry sizes inside PAIRS
	// and RECORDS payloads — the paper's on-disk atoms.
	PairSize   = geom.PairSize
	RecordSize = geom.RecordSize
)

// ContentType is the negotiated media type of a frame stream: a
// client sends it in Accept and a frame-speaking server echoes it in
// Content-Type. A server that ignores the offer answers NDJSON under
// its own Content-Type, which is all a decoding client checks.
const ContentType = "application/x-sj-frames"

// Type identifies what a frame's payload carries.
type Type byte

// The frame types.
const (
	TypePairs   Type = 1 // packed 8-byte join pairs
	TypeRecords Type = 2 // packed 20-byte records
	TypeSummary Type = 3 // JSON terminal summary
	TypeError   Type = 4 // JSON client.APIError
	TypeEnd     Type = 5 // empty clean-termination mark
)

// String names a frame type, as used for metric labels.
func (t Type) String() string {
	switch t {
	case TypePairs:
		return "pairs"
	case TypeRecords:
		return "records"
	case TypeSummary:
		return "summary"
	case TypeError:
		return "error"
	case TypeEnd:
		return "end"
	default:
		return fmt.Sprintf("unknown(%d)", byte(t))
	}
}

// valid reports whether t is a known frame type.
func (t Type) valid() bool { return t >= TypePairs && t <= TypeEnd }

// Negotiates reports whether an HTTP request asked for the binary
// frame transport: its Accept header lists the frame media type.
// NDJSON stays the default for every request that doesn't.
func Negotiates(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentType)
}

// IsFrameResponse reports whether a response's Content-Type says the
// body is a frame stream — how a negotiating client tells a
// frame-speaking server from an old NDJSON-only one that ignored the
// Accept header.
func IsFrameResponse(contentType string) bool {
	return strings.Contains(contentType, ContentType)
}

// putHeader writes the 12-byte header for a frame of type t carrying
// payload into dst, which must be at least HeaderSize bytes.
func putHeader(dst []byte, t Type, payload []byte) {
	_ = dst[HeaderSize-1]
	dst[0] = Magic0
	dst[1] = Magic1
	dst[offVersion] = Version
	dst[offType] = byte(t)
	binary.LittleEndian.PutUint32(dst[offLen:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[offCRC:], crc32.ChecksumIEEE(payload))
}

// AppendFrame appends one whole frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	var hdr [HeaderSize]byte
	putHeader(hdr[:], t, payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameBuf is a poolable scratch buffer (a pointer type, so pool
// round-trips don't box a slice header on every Put).
type frameBuf struct{ b []byte }

// bufPool recycles encoder scratch buffers across streams, so a
// long-lived server's frame writing settles at zero allocations per
// frame.
var bufPool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}

// Encoder writes a frame stream to w. It is not safe for concurrent
// use; one encoder serves one response stream. Close returns its
// scratch buffer to a pool — an encoder must not be used after Close.
type Encoder struct {
	w  io.Writer
	fb *frameBuf
}

// NewEncoder returns an encoder writing frames to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, fb: bufPool.Get().(*frameBuf)}
}

// Close releases the encoder's scratch buffer.
func (e *Encoder) Close() {
	if e.fb != nil {
		e.fb.b = e.fb.b[:0]
		bufPool.Put(e.fb)
		e.fb = nil
	}
}

// scratch returns the encoder's reset scratch buffer, re-acquiring one
// if the encoder was used after Close.
func (e *Encoder) scratch() []byte {
	if e.fb == nil {
		e.fb = bufPool.Get().(*frameBuf)
	}
	return e.fb.b[:0]
}

// writeFrame assembles header + payload in the scratch buffer and
// writes it with a single Write call, so a frame is never split
// across two writes (one flush per frame downstream).
func (e *Encoder) writeFrame(t Type, payload []byte) error {
	buf := AppendFrame(e.scratch(), t, payload)
	e.fb.b = buf
	_, err := e.w.Write(buf)
	return err
}

// WritePairs emits one PAIRS frame carrying the batch. Batches larger
// than MaxPayload/PairSize entries are split across frames.
func (e *Encoder) WritePairs(pairs [][2]uint32) error {
	const maxPer = MaxPayload / PairSize
	for len(pairs) > 0 {
		n := min(len(pairs), maxPer)
		buf := e.scratch()
		var hdr [HeaderSize]byte
		buf = append(buf, hdr[:]...) // reserve; filled after packing
		for _, p := range pairs[:n] {
			var cell [PairSize]byte
			geom.EncodePair(cell[:], geom.Pair{Left: p[0], Right: p[1]})
			buf = append(buf, cell[:]...)
		}
		putHeader(buf[:HeaderSize], TypePairs, buf[HeaderSize:])
		e.fb.b = buf
		if _, err := e.w.Write(buf); err != nil {
			return err
		}
		pairs = pairs[n:]
	}
	return nil
}

// WriteRecords emits one RECORDS frame carrying the batch in the
// 20-byte on-disk layout, splitting oversized batches as WritePairs
// does.
func (e *Encoder) WriteRecords(recs []geom.Record) error {
	const maxPer = MaxPayload / RecordSize
	for len(recs) > 0 {
		n := min(len(recs), maxPer)
		buf := e.scratch()
		var hdr [HeaderSize]byte
		buf = append(buf, hdr[:]...)
		for _, rec := range recs[:n] {
			var cell [RecordSize]byte
			geom.EncodeRecord(cell[:], rec)
			buf = append(buf, cell[:]...)
		}
		putHeader(buf[:HeaderSize], TypeRecords, buf[HeaderSize:])
		e.fb.b = buf
		if _, err := e.w.Write(buf); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// WriteJSON emits one SUMMARY or ERROR frame whose payload is v
// marshaled as JSON.
func (e *Encoder) WriteJSON(t Type, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return e.writeFrame(t, payload)
}

// WriteEnd emits the END frame.
func (e *Encoder) WriteEnd() error { return e.writeFrame(TypeEnd, nil) }

// WriteRaw writes an already-framed byte sequence through unmodified —
// the router's relay path. The caller vouches that raw is one whole
// frame (Scanner.Next returns exactly that).
func (e *Encoder) WriteRaw(raw []byte) error {
	_, err := e.w.Write(raw)
	return err
}
