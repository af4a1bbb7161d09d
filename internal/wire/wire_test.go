package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"unijoin/internal/geom"
)

// encodeStream writes a full stream (pairs, summary, end) and returns
// the raw bytes.
func encodeStream(t *testing.T, pairs [][2]uint32, summary any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := NewEncoder(&b)
	defer enc.Close()
	if err := enc.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteJSON(TypeSummary, summary); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestPairsRoundTrip(t *testing.T) {
	pairs := [][2]uint32{{1, 2}, {3, 4}, {0xFFFFFFFF, 0}, {7, 7}}
	raw := encodeStream(t, pairs, map[string]int{"pairs": 4})

	dec := NewDecoder(bytes.NewReader(raw))
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypePairs {
		t.Fatalf("first frame type = %v, want pairs", f.Type)
	}
	got, err := f.Pairs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], pairs[i])
		}
	}
	if f, err = dec.Next(); err != nil || f.Type != TypeSummary {
		t.Fatalf("second frame = %v, %v; want summary", f.Type, err)
	}
	if f, err = dec.Next(); err != nil || f.Type != TypeEnd {
		t.Fatalf("third frame = %v, %v; want end", f.Type, err)
	}
	if _, err = dec.Next(); err != io.EOF {
		t.Fatalf("after end: %v, want io.EOF", err)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	recs := []geom.Record{
		{Rect: geom.NewRect(1, 2, 3, 4), ID: 9},
		{Rect: geom.NewRect(-5, -6, -1, 0), ID: 0xFFFFFFFF},
	}
	var b bytes.Buffer
	enc := NewEncoder(&b)
	defer enc.Close()
	if err := enc.WriteRecords(recs); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&b)
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Records(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Rect != recs[i].Rect || got[i].ID != recs[i].ID {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestLargeBatchSplits checks batches beyond MaxPayload split across
// frames without losing entries.
func TestLargeBatchSplits(t *testing.T) {
	n := MaxPayload/PairSize + 100
	pairs := make([][2]uint32, n)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i), uint32(i * 2)}
	}
	var b bytes.Buffer
	enc := NewEncoder(&b)
	defer enc.Close()
	if err := enc.WritePairs(pairs); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&b)
	var got [][2]uint32
	frames := 0
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		if got, err = f.Pairs(got); err != nil {
			t.Fatal(err)
		}
	}
	if frames < 2 {
		t.Fatalf("oversized batch produced %d frames, want ≥ 2", frames)
	}
	if len(got) != n {
		t.Fatalf("decoded %d pairs, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], pairs[i])
		}
	}
}

// corrupt returns raw with one byte altered at off.
func corrupt(raw []byte, off int, b byte) []byte {
	out := append([]byte(nil), raw...)
	out[off] = b
	return out
}

func TestDecoderTypedErrors(t *testing.T) {
	raw := encodeStream(t, [][2]uint32{{1, 2}}, map[string]int{"n": 1})
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"bad magic", corrupt(raw, 0, 'X'), ErrBadMagic},
		{"bad version", corrupt(raw, 2, 99), ErrBadVersion},
		{"bad type", corrupt(raw, 3, 200), ErrBadType},
		{"zero type", corrupt(raw, 3, 0), ErrBadType},
		{"flipped payload", corrupt(raw, HeaderSize, raw[HeaderSize]^0xFF), ErrChecksum},
		{"flipped crc", corrupt(raw, 8, raw[8]^0xFF), ErrChecksum},
		{"mid header", raw[:HeaderSize-3], ErrTruncated},
		{"mid payload", raw[:HeaderSize+4], ErrTruncated},
	}
	// An oversized length field must be rejected before any allocation.
	big := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(big[4:], MaxPayload+1)
	cases = append(cases, struct {
		name string
		in   []byte
		want error
	}{"oversized length", big, ErrTooLarge})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.in)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v does not match ErrCorrupt", err)
			}
		})
	}
}

func TestMisalignedPayload(t *testing.T) {
	raw := AppendFrame(nil, TypePairs, []byte{1, 2, 3}) // 3 % 8 != 0
	dec := NewDecoder(bytes.NewReader(raw))
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err) // framing itself is fine
	}
	if _, err := f.Pairs(nil); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("got %v, want ErrMisaligned", err)
	}
}

// TestScannerRelaysBytesVerbatim is the zero-decode property at the
// package level: the scanner hands back the exact frame bytes —
// including a deliberately wrong CRC, which a decoding path would
// reject — so a relay built on it cannot be re-encoding.
func TestScannerRelaysBytesVerbatim(t *testing.T) {
	payload := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	frame := AppendFrame(nil, TypePairs, payload)
	frame[8] ^= 0xA5 // break the CRC: decode would fail, relay must not care
	stream := append(append([]byte(nil), frame...), AppendFrame(nil, TypeEnd, nil)...)

	sc := NewScanner(bytes.NewReader(stream))
	typ, raw, err := sc.Next()
	if err != nil {
		t.Fatalf("scanner rejected a frame with a bad payload CRC: %v", err)
	}
	if typ != TypePairs {
		t.Fatalf("type = %v, want pairs", typ)
	}
	if !bytes.Equal(raw, frame) {
		t.Fatalf("scanner modified the frame:\n got %x\nwant %x", raw, frame)
	}
	if _, err := Verify(raw); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Verify on the corrupt frame: %v, want ErrChecksum", err)
	}
	if typ, _, err = sc.Next(); err != nil || typ != TypeEnd {
		t.Fatalf("second frame = %v, %v; want end", typ, err)
	}
	if _, _, err = sc.Next(); err != io.EOF {
		t.Fatalf("after end: %v, want io.EOF", err)
	}

	// The decoder, by contrast, must reject the same stream.
	if _, err := NewDecoder(bytes.NewReader(stream)).Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("decoder accepted a corrupt payload: %v", err)
	}
}

// TestVerifyAndPeekType covers the two ways another package may read a
// raw frame: Verify parses it (type + payload, CRC checked) and
// PeekType reads the type byte of one it will relay unread. Header
// offsets are unexported, so there is no third way.
func TestVerifyAndPeekType(t *testing.T) {
	payloads := map[Type][]byte{
		TypePairs:   {1, 0, 0, 0, 2, 0, 0, 0},
		TypeRecords: make([]byte, RecordSize),
		TypeSummary: []byte(`{"pairs":1}`),
		TypeError:   []byte(`{"code":"internal"}`),
		TypeEnd:     nil,
	}
	for typ, payload := range payloads {
		raw := AppendFrame(nil, typ, payload)
		f, err := Verify(raw)
		if err != nil || f.Type != typ || !bytes.Equal(f.Payload, payload) {
			t.Errorf("Verify(%s frame) = {%s, %x}, %v; want {%s, %x}", typ, f.Type, f.Payload, err, typ, payload)
		}
		if got := PeekType(raw); got != typ {
			t.Errorf("PeekType(%s frame) = %s", typ, got)
		}
	}

	raw := AppendFrame(nil, TypePairs, payloads[TypePairs])
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short of a header", raw[:HeaderSize-1], ErrTruncated},
		{"flipped payload", corrupt(raw, HeaderSize, raw[HeaderSize]^0xFF), ErrChecksum},
		{"flipped crc", corrupt(raw, 8, raw[8]^0xFF), ErrChecksum},
		{"payload cut short", raw[:len(raw)-1], ErrChecksum},
	} {
		f, err := Verify(tc.in)
		if !errors.Is(err, tc.want) || !errors.Is(err, ErrCorrupt) || f.Payload != nil {
			t.Errorf("Verify(%s) = %+v, %v; want no frame and %v", tc.name, f, err, tc.want)
		}
		// PeekType never panics and never verifies: a short slice has no
		// type, a corrupt frame still says what it claims to be.
		if got := PeekType(tc.in); len(tc.in) < HeaderSize && got != 0 {
			t.Errorf("PeekType(%s) = %s, want no type", tc.name, got)
		}
	}
	if got := PeekType(corrupt(raw, HeaderSize, 0xEE)); got != TypePairs {
		t.Errorf("PeekType on a corrupt pairs frame = %s", got)
	}

	// An oversized frame never reaches Verify: finding its boundary is
	// the Scanner's job, and it refuses the length field as before.
	big := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(big[4:], MaxPayload+1)
	if _, _, err := NewScanner(bytes.NewReader(big)).Next(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("scanner on an oversized length field: %v, want ErrTooLarge", err)
	}
}

func TestNegotiation(t *testing.T) {
	if !IsFrameResponse(ContentType) || IsFrameResponse("application/x-ndjson") {
		t.Fatal("IsFrameResponse misclassifies")
	}
}

func BenchmarkWritePairs(b *testing.B) {
	pairs := make([][2]uint32, 1024)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i), uint32(i + 1)}
	}
	enc := NewEncoder(io.Discard)
	defer enc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.WritePairs(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePairs(b *testing.B) {
	pairs := make([][2]uint32, 1024)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.WritePairs(pairs); err != nil {
		b.Fatal(err)
	}
	enc.Close()
	raw := buf.Bytes()
	dst := make([][2]uint32, 0, 1024)
	rd := bytes.NewReader(raw)
	dec := NewDecoder(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		f, err := dec.Next()
		if err != nil {
			b.Fatal(err)
		}
		if dst, err = f.Pairs(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
