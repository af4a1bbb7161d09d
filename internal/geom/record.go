package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ID identifies a spatial object within one relation. IDs are assigned
// by the data generator and are unique per relation, not globally.
type ID = uint32

// RecordSize is the on-disk size of one MBR record: four float32
// coordinates (16 bytes) plus a 4-byte ID, exactly as in Section 5.3 of
// the paper ("Each MBR occupies 20 bytes").
const RecordSize = 20

// PairSize is the on-disk size of one join output item: "each output
// item is a pair of IDs corresponding to overlapping MBRs" (8 bytes).
const PairSize = 8

// Record is one spatial object in MBR approximation: the bounding
// rectangle together with the object's ID. In memory it is exactly its
// RecordSize-byte on-disk form, so every resident run and stripe layout
// costs 20 bytes a record; engines keep what they know about a record
// (which class of a stripe it is) in where they put it, not in a tag.
type Record struct {
	Rect Rect
	ID   ID
}

// Pair is one join result: the IDs of two intersecting MBRs, left from
// relation R and right from relation S.
type Pair struct {
	Left, Right ID
}

// EncodeRecord writes r into dst, which must be at least RecordSize
// bytes, and returns RecordSize. The layout is little-endian:
// xlo, ylo, xhi, yhi (float32 each), then the ID (uint32).
func EncodeRecord(dst []byte, r Record) int {
	_ = dst[RecordSize-1] // bounds check hint
	binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(r.Rect.XLo))
	binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(r.Rect.YLo))
	binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(r.Rect.XHi))
	binary.LittleEndian.PutUint32(dst[12:], math.Float32bits(r.Rect.YHi))
	binary.LittleEndian.PutUint32(dst[16:], r.ID)
	return RecordSize
}

// DecodeRecord reads a Record from src, which must hold at least
// RecordSize bytes.
func DecodeRecord(src []byte) Record {
	_ = src[RecordSize-1]
	return Record{
		Rect: Rect{
			XLo: math.Float32frombits(binary.LittleEndian.Uint32(src[0:])),
			YLo: math.Float32frombits(binary.LittleEndian.Uint32(src[4:])),
			XHi: math.Float32frombits(binary.LittleEndian.Uint32(src[8:])),
			YHi: math.Float32frombits(binary.LittleEndian.Uint32(src[12:])),
		},
		ID: binary.LittleEndian.Uint32(src[16:]),
	}
}

// EncodePair writes p into dst (at least PairSize bytes) and returns
// PairSize.
func EncodePair(dst []byte, p Pair) int {
	_ = dst[PairSize-1]
	binary.LittleEndian.PutUint32(dst[0:], p.Left)
	binary.LittleEndian.PutUint32(dst[4:], p.Right)
	return PairSize
}

// DecodePair reads a Pair from src (at least PairSize bytes).
func DecodePair(src []byte) Pair {
	_ = src[PairSize-1]
	return Pair{
		Left:  binary.LittleEndian.Uint32(src[0:]),
		Right: binary.LittleEndian.Uint32(src[4:]),
	}
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.Left, p.Right) }

// ByLowerY orders records by the lower y-coordinate of their MBR, the
// sort order used by the plane sweep in SSSJ and by the PQ index
// adapter. Ties are broken by ID to make sorting deterministic.
func ByLowerY(a, b Record) int {
	switch {
	case a.Rect.YLo < b.Rect.YLo:
		return -1
	case a.Rect.YLo > b.Rect.YLo:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// PairLess orders pairs lexicographically; used to canonicalize result
// sets in tests and to deduplicate output when needed.
func PairLess(a, b Pair) bool {
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Right < b.Right
}
