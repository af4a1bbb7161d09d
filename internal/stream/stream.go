// Package stream provides typed record streams over the simulated disk
// and an external multiway mergesort. It plays the role TPIE plays in
// the paper (Section 5.2): a thin, efficient layer for purely
// stream-based algorithms (SSSJ, PBSM) that accesses the disk in large
// sequential units.
//
// A stream is a sequence of fixed-size records in an iosim.File.
// Writers and readers move data in logical pages of LogicalPages disk
// pages each — the role TPIE's 512 KB logical page plays in the paper:
// when several streams are active at once (run formation, merging,
// partitioning), the disk head pays one seek per logical page instead
// of one per disk page, keeping stream algorithms sequential-dominant
// exactly as the paper's BTE does. Producing or scanning an n-page
// stream still costs n page accesses.
package stream

import (
	"errors"
	"fmt"
	"io"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
)

// Codec describes how to serialize one fixed-size record of type T.
type Codec[T any] struct {
	// Size is the encoded size of every record, in bytes.
	Size int
	// Encode writes v into dst[:Size].
	Encode func(dst []byte, v T)
	// Decode reads a record from src[:Size].
	Decode func(src []byte) T
}

// LogicalPages is the number of contiguous disk pages moved per
// stream I/O operation (32 KB with the default 8 KB pages). The ratio
// of memory to logical page size sets the merge fan-in; at the scaled
// memory budgets this value keeps every experiment's sort at a single
// merge pass, as in the paper (whose 24 MB memory and 512 KB logical
// pages gave a fan-in of ~46).
const LogicalPages = 4

// logicalBytes returns the stream I/O unit for a store.
func logicalBytes(store *iosim.Store) int { return LogicalPages * store.PageSize() }

// Records is the codec for the paper's 20-byte MBR records.
var Records = Codec[geom.Record]{
	Size:   geom.RecordSize,
	Encode: func(dst []byte, v geom.Record) { geom.EncodeRecord(dst, v) },
	Decode: geom.DecodeRecord,
}

// Writer appends records of type T to a file.
type Writer[T any] struct {
	f     *iosim.File
	codec Codec[T]
	buf   []byte
	n     int // bytes buffered
	count int64
}

// NewWriter returns a Writer appending to f. The file should be empty
// or previously written with the same codec.
func NewWriter[T any](f *iosim.File, c Codec[T]) *Writer[T] {
	if c.Size <= 0 {
		panic("stream: codec with non-positive size")
	}
	return &Writer[T]{f: f, codec: c, buf: make([]byte, logicalBytes(f.Store()))}
}

// Write appends one record.
func (w *Writer[T]) Write(v T) error {
	var scratch [64]byte
	if w.codec.Size > len(scratch) {
		return fmt.Errorf("stream: record size %d exceeds scratch", w.codec.Size)
	}
	w.codec.Encode(scratch[:w.codec.Size], v)
	rec := scratch[:w.codec.Size]
	for len(rec) > 0 {
		n := copy(w.buf[w.n:], rec)
		w.n += n
		rec = rec[n:]
		if w.n == len(w.buf) {
			if err := w.f.Append(w.buf); err != nil {
				return err
			}
			w.n = 0
		}
	}
	w.count++
	return nil
}

// Flush writes any buffered bytes to the file. Call it once after the
// last Write; the stream is then complete.
func (w *Writer[T]) Flush() error {
	if w.n > 0 {
		if err := w.f.Append(w.buf[:w.n]); err != nil {
			return err
		}
		w.n = 0
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer[T]) Count() int64 { return w.count }

// Reader scans the records of a file sequentially.
type Reader[T any] struct {
	f        *iosim.File
	codec    Codec[T]
	buf      []byte // window of undecoded bytes
	bufBytes int    // bytes per fill
	start    int
	end      int
	off      int64 // next file offset to read (page aligned)
	size     int64 // file size at reader creation
}

// NewReader returns a Reader positioned at the start of f, buffering
// LogicalPages disk pages per fill.
func NewReader[T any](f *iosim.File, c Codec[T]) *Reader[T] {
	return NewReaderPages(f, c, LogicalPages)
}

// NewReaderPages returns a Reader with an explicit buffer size in disk
// pages (minimum 1). The external sort shrinks merge-input buffers to
// keep a high fan-in within the memory budget, as real systems do.
func NewReaderPages[T any](f *iosim.File, c Codec[T], pages int) *Reader[T] {
	if c.Size <= 0 {
		panic("stream: codec with non-positive size")
	}
	if pages < 1 {
		pages = 1
	}
	lb := pages * f.Store().PageSize()
	return &Reader[T]{f: f, codec: c, buf: make([]byte, 0, 2*lb), bufBytes: lb, size: f.Size()}
}

// Count returns the total number of records in the stream.
func (r *Reader[T]) Count() int64 { return r.size / int64(r.codec.Size) }

// Next returns the next record. ok is false at the end of the stream.
func (r *Reader[T]) Next() (v T, ok bool, err error) {
	for r.end-r.start < r.codec.Size {
		if r.off >= r.size {
			if r.end-r.start == 0 {
				return v, false, nil
			}
			return v, false, fmt.Errorf("stream: %d trailing bytes (torn record)", r.end-r.start)
		}
		if err := r.fill(); err != nil {
			return v, false, err
		}
	}
	v = r.codec.Decode(r.buf[r.start : r.start+r.codec.Size])
	r.start += r.codec.Size
	return v, true, nil
}

// fill reads the next buffer of the file into the window, compacting
// consumed bytes first.
func (r *Reader[T]) fill() error {
	ps := r.bufBytes
	if r.start > 0 {
		copy(r.buf[:r.end-r.start], r.buf[r.start:r.end])
		r.end -= r.start
		r.start = 0
	}
	want := int64(ps)
	if r.size-r.off < want {
		want = r.size - r.off
	}
	r.buf = r.buf[:r.end+int(want)]
	n, err := r.f.ReadAt(r.buf[r.end:r.end+int(want)], r.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if int64(n) != want {
		return fmt.Errorf("stream: short read %d of %d at %d", n, want, r.off)
	}
	r.end += n
	r.off += int64(n)
	return nil
}

// WriteAll writes all records to a fresh stream on store and returns
// the backing file.
func WriteAll[T any](store *iosim.Store, c Codec[T], recs []T) (*iosim.File, error) {
	f := iosim.NewFile(store)
	w := NewWriter(f, c)
	for _, v := range recs {
		if err := w.Write(v); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadAll materializes an entire stream in memory. Intended for tests
// and small auxiliary streams; the join algorithms never call it on
// their inputs.
func ReadAll[T any](f *iosim.File, c Codec[T]) ([]T, error) {
	r := NewReader(f, c)
	out := make([]T, 0, r.Count())
	for {
		v, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}
