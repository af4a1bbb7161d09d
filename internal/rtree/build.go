package rtree

import (
	"encoding/binary"
	"fmt"

	"unijoin/internal/geom"
	"unijoin/internal/iosim"
	"unijoin/internal/stream"
)

// BuildOptions controls bulk loading. The zero value is replaced by
// the paper's configuration (fanout 400, 75% fill, 20% area slack).
type BuildOptions struct {
	// Fanout is the maximum entries per node. It is capped by what the
	// page can hold. The paper uses 400 on 8 KB pages.
	Fanout int
	// FillFactor is the fraction of Fanout each node is packed to
	// before the area-slack rule applies. The paper uses 0.75.
	FillFactor float64
	// AreaSlack is the fractional MBR-area growth allowed while topping
	// a node up beyond FillFactor*Fanout entries. The paper uses 0.20.
	AreaSlack float64
	// PackFull, when set, ignores FillFactor/AreaSlack and packs every
	// node to Fanout (the layout DeWitt et al. warn against; kept for
	// the packing-policy ablation).
	PackFull bool
	// SortMemory is the simulated memory budget for the external sort
	// of the Hilbert pass, in bytes. Defaults to 2 MB.
	SortMemory int
}

// DefaultBuildOptions returns the paper's configuration.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Fanout: 400, FillFactor: 0.75, AreaSlack: 0.20, SortMemory: 2 << 20}
}

func (o BuildOptions) normalize(pageSize int) (BuildOptions, error) {
	if o.Fanout == 0 {
		o.Fanout = 400
	}
	if o.FillFactor == 0 {
		o.FillFactor = 0.75
	}
	if o.AreaSlack == 0 {
		o.AreaSlack = 0.20
	}
	if o.SortMemory == 0 {
		o.SortMemory = 2 << 20
	}
	if maxF := MaxFanout(pageSize); o.Fanout > maxF {
		o.Fanout = maxF
	}
	if o.Fanout < 2 {
		return o, fmt.Errorf("rtree: fanout %d too small for page size %d", o.Fanout, pageSize)
	}
	if o.FillFactor <= 0 || o.FillFactor > 1 {
		return o, fmt.Errorf("rtree: fill factor %g out of (0,1]", o.FillFactor)
	}
	if o.AreaSlack < 0 {
		return o, fmt.Errorf("rtree: negative area slack")
	}
	return o, nil
}

// Tree is a packed R-tree resident on a simulated disk. Trees are
// immutable after bulk loading, as in the paper (updates and their
// effect on layout are exactly what Section 6.3 sets aside).
type Tree struct {
	store    *iosim.Store
	root     iosim.PageID
	height   int // number of levels; 1 = root is a leaf
	numNodes int
	leaves   int
	entries  int64
	mbr      geom.Rect
	fanout   int
	universe geom.Rect
}

// Root returns the root page.
func (t *Tree) Root() iosim.PageID { return t.root }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// NumNodes returns the total number of pages in the tree — the
// "lower bound" page count of Table 4.
func (t *Tree) NumNodes() int { return t.numNodes }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return t.leaves }

// NumRecords returns the number of data rectangles stored.
func (t *Tree) NumRecords() int64 { return t.entries }

// MBR returns the bounding rectangle of the whole tree.
func (t *Tree) MBR() geom.Rect { return t.mbr }

// Fanout returns the build-time maximum fanout.
func (t *Tree) Fanout() int { return t.fanout }

// SizeBytes returns the on-disk size of the tree (the "R-tree" rows of
// Table 2).
func (t *Tree) SizeBytes() int64 {
	return int64(t.numNodes) * int64(t.store.PageSize())
}

// PackingRatio returns the average node utilization relative to the
// maximum fanout; the paper reports about 0.90 for its trees.
func (t *Tree) PackingRatio() float64 {
	if t.numNodes == 0 {
		return 0
	}
	// Total entries across all levels: data entries plus one entry per
	// non-root node in its parent.
	total := t.entries + int64(t.numNodes-1)
	return float64(total) / float64(int64(t.numNodes)*int64(t.fanout))
}

// Build bulk-loads an R-tree from a stream of data records using the
// Hilbert heuristic: records are externally sorted by the Hilbert
// value of their MBR center within the universe, then packed into
// leaves left to right, then each level is packed the same way until a
// single root remains. Pages for each level are allocated in
// construction order, so siblings are contiguous on the simulated disk
// — the layout Section 6.2 shows gives ST its sequential-I/O advantage.
//
// All sorting and node writes go through the simulated disk, so the
// store's counters after Build reflect the full bulk-loading cost the
// paper discusses (roughly an external sort plus one write per node).
func Build(store *iosim.Store, in *iosim.File, universe geom.Rect, opts BuildOptions) (*Tree, error) {
	opts, err := opts.normalize(store.PageSize())
	if err != nil {
		return nil, err
	}
	if err := stream.Validate(in, stream.Records); err != nil {
		return nil, err
	}

	// Pass 1: external sort by Hilbert value of the center. The key is
	// computed once per record and carried through the sort in a keyed
	// temporary stream (28-byte records), rather than recomputed
	// O(n log n) times inside the comparator.
	keyed := iosim.NewFile(store)
	kw := stream.NewWriter(keyed, keyedCodec)
	{
		rd := stream.NewReader(in, stream.Records)
		for {
			rec, ok, err := rd.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := kw.Write(keyedRecord{Key: geom.HilbertValue(rec.Rect.Center(), universe), Rec: rec}); err != nil {
				return nil, err
			}
		}
		if err := kw.Flush(); err != nil {
			return nil, err
		}
	}
	sortedKeyed, _, err := stream.Sort(store, keyed, keyedCodec, keyedCmp, opts.SortMemory)
	if err != nil {
		return nil, err
	}
	keyed.Release()
	defer sortedKeyed.Release()

	t := &Tree{store: store, fanout: opts.Fanout, universe: universe, mbr: geom.EmptyRect()}

	// Pass 2: pack leaves from the sorted stream.
	rd := stream.NewReader(sortedKeyed, keyedCodec)
	next := func() (Entry, bool, error) {
		kr, ok, err := rd.Next()
		if err != nil || !ok {
			return Entry{}, false, err
		}
		rec := kr.Rec
		t.entries++
		t.mbr = t.mbr.Union(rec.Rect)
		return Entry{Rect: rec.Rect, Ref: rec.ID}, true, nil
	}
	level, err := t.packLevel(0, next, opts)
	if err != nil {
		return nil, err
	}
	t.leaves = len(level)

	if len(level) == 0 {
		// Empty input: materialize a single empty leaf as the root so
		// queries and scans work uniformly.
		page := store.Alloc()
		buf, err := store.WritablePage(page)
		if err != nil {
			return nil, err
		}
		if err := encodeNode(buf, &Node{Level: 0}); err != nil {
			return nil, err
		}
		t.root = page
		t.height = 1
		t.numNodes = 1
		t.leaves = 1
		return t, nil
	}

	// Pass 3+: pack parent levels until one node remains.
	h := 1
	for len(level) > 1 {
		pos := 0
		src := level
		nextUp := func() (Entry, bool, error) {
			if pos >= len(src) {
				return Entry{}, false, nil
			}
			e := src[pos]
			pos++
			return e, true, nil
		}
		level, err = t.packLevel(uint8(h), nextUp, opts)
		if err != nil {
			return nil, err
		}
		h++
	}
	t.root = iosim.PageID(level[0].Ref)
	t.height = h
	return t, nil
}

// packLevel consumes entries from next and writes nodes of the given
// level, returning one parent entry per node written.
func (t *Tree) packLevel(level uint8, next func() (Entry, bool, error), opts BuildOptions) ([]Entry, error) {
	var parents []Entry
	fill := int(float64(opts.Fanout) * opts.FillFactor)
	if fill < 1 {
		fill = 1
	}
	if opts.PackFull {
		fill = opts.Fanout
	}

	var node Node
	node.Level = level
	baseArea := -1.0 // node MBR area when the fill target was reached

	flush := func() error {
		if len(node.Entries) == 0 {
			return nil
		}
		page := t.store.Alloc()
		buf, err := t.store.WritablePage(page)
		if err != nil {
			return err
		}
		if err := encodeNode(buf, &node); err != nil {
			return err
		}
		parents = append(parents, Entry{Rect: node.MBR(), Ref: uint32(page)})
		t.numNodes++
		node.Entries = node.Entries[:0]
		baseArea = -1
		return nil
	}

	for {
		e, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(node.Entries) >= fill && !opts.PackFull {
			// Top-up rule (DeWitt et al. [10], as applied in §3.3):
			// beyond the fill target, accept an entry only while the
			// node's covered area has grown at most AreaSlack beyond
			// what it covered at the fill target, and the page has room.
			if baseArea < 0 {
				baseArea = node.MBR().Area()
			}
			grown := node.MBR().Union(e.Rect).Area()
			if len(node.Entries) >= opts.Fanout || grown > baseArea*(1+opts.AreaSlack) {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		} else if len(node.Entries) >= opts.Fanout {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		node.Entries = append(node.Entries, e)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return parents, nil
}

// BuildFromSlice is a convenience wrapper: it writes recs to a
// temporary stream on store and bulk-loads from it.
func BuildFromSlice(store *iosim.Store, recs []geom.Record, universe geom.Rect, opts BuildOptions) (*Tree, error) {
	f, err := stream.WriteAll(store, stream.Records, recs)
	if err != nil {
		return nil, err
	}
	return Build(store, f, universe, opts)
}

// keyedRecord decorates a record with its precomputed Hilbert key for
// the bulk-loading sort.
type keyedRecord struct {
	Key uint64
	Rec geom.Record
}

// keyedCodec serializes keyedRecords (8-byte key + 20-byte record).
var keyedCodec = stream.Codec[keyedRecord]{
	Size: 8 + geom.RecordSize,
	Encode: func(dst []byte, v keyedRecord) {
		binary.LittleEndian.PutUint64(dst[0:], v.Key)
		geom.EncodeRecord(dst[8:], v.Rec)
	},
	Decode: func(src []byte) keyedRecord {
		return keyedRecord{
			Key: binary.LittleEndian.Uint64(src[0:]),
			Rec: geom.DecodeRecord(src[8:]),
		}
	},
}

// keyedCmp orders by Hilbert key, breaking ties by ID for determinism.
func keyedCmp(a, b keyedRecord) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	case a.Rec.ID < b.Rec.ID:
		return -1
	case a.Rec.ID > b.Rec.ID:
		return 1
	default:
		return 0
	}
}
