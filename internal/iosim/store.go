// Package iosim simulates the storage hardware of the paper's
// experimental platforms (Arge et al., EDBT 2000, Section 5.1).
//
// The paper's central point is that the *kind* of disk access matters:
// sequential transfers run at the disk's peak rate while random
// accesses pay an average seek + rotational delay per request, a gap of
// roughly 10x on the paper's disks. iosim therefore provides
//
//   - Store: a paged, in-memory "disk" that counts every page read and
//     write and classifies each as sequential (the page follows the
//     previously accessed page) or random;
//   - DiskModel / Machine: the three workstation configurations of
//     Table 1, which turn those counters into simulated I/O time;
//   - BufferPool: the LRU page cache used by the ST join (22 MB in the
//     paper), whose misses are the "page requests" of Table 4;
//   - File: an extent-based byte file over the Store used by the
//     stream layer, so large sequential scans are classified as
//     sequential automatically.
//
// All state is in memory; nothing touches the real filesystem, so
// experiments are deterministic and fast while preserving the
// sequential-vs-random structure the paper measures.
package iosim

import (
	"errors"
	"fmt"
	"sync"
)

// PageID identifies one page on the simulated disk. Pages are numbered
// consecutively from 0 in allocation order, which mirrors the
// bulk-loading layout argument of Section 6.2: children allocated
// together are laid out contiguously.
type PageID uint32

// InvalidPage is a sentinel that never refers to an allocated page.
const InvalidPage = PageID(^uint32(0))

// DefaultPageSize is the R-tree node / disk page size used in all of
// the paper's experiments (8 KB; machine 1 has 4 KB pages but the
// authors request two blocks per I/O to match).
const DefaultPageSize = 8192

// Counters accumulates the I/O activity observed by a Store. The
// sequential/random split is what drives the simulated-time model.
type Counters struct {
	SeqReads   int64 // page reads that followed the previous access
	RandReads  int64 // page reads that required a seek
	SeqWrites  int64
	RandWrites int64
}

// Reads returns the total number of page reads.
func (c Counters) Reads() int64 { return c.SeqReads + c.RandReads }

// Writes returns the total number of page writes.
func (c Counters) Writes() int64 { return c.SeqWrites + c.RandWrites }

// Total returns the total number of page accesses.
func (c Counters) Total() int64 { return c.Reads() + c.Writes() }

// Sub returns the counter delta c - o; use with a snapshot taken before
// an operation to isolate that operation's I/O.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		SeqReads:   c.SeqReads - o.SeqReads,
		RandReads:  c.RandReads - o.RandReads,
		SeqWrites:  c.SeqWrites - o.SeqWrites,
		RandWrites: c.RandWrites - o.RandWrites,
	}
}

// Add returns the element-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		SeqReads:   c.SeqReads + o.SeqReads,
		RandReads:  c.RandReads + o.RandReads,
		SeqWrites:  c.SeqWrites + o.SeqWrites,
		RandWrites: c.RandWrites + o.RandWrites,
	}
}

// String implements fmt.Stringer.
func (c Counters) String() string {
	return fmt.Sprintf("reads %d (%d seq, %d rand), writes %d (%d seq, %d rand)",
		c.Reads(), c.SeqReads, c.RandReads, c.Writes(), c.SeqWrites, c.RandWrites)
}

// Store is the simulated disk: a growable array of fixed-size pages
// with access counting. Store is safe for concurrent use: allocation,
// page access, and counter reads are serialized by an internal mutex,
// so several queries may run against one workspace at once (the query
// service does exactly this). Two caveats follow from sharing one
// disk: the counters accumulate the I/O of every concurrent query, so
// per-query deltas are only exact when queries run one at a time, and
// the sequential/random classification reflects the interleaved head
// movement of all of them — exactly as on real shared hardware. Page
// *contents* are protected only per access: concurrent readers are
// fine, as is writing pages no other goroutine touches (each query
// writes only its own temporary files), but racing writers on one
// page are the caller's bug.
type Store struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte

	// Access classification is kept under two drive models at once
	// (Section 6.2 of the paper turns on exactly this distinction):
	//
	//   - counters/tracker with CacheSegments segments model a drive
	//     with a segmented on-disk cache (the 512 KB Barracuda and
	//     Cheetah): a handful of interleaved sequential streams all
	//     enjoy prefetching, so ST's two per-tree DFS streams stay
	//     sequential.
	//   - directCounters/directTracker with a single segment model a
	//     drive whose cache cannot hold multiple streams (the 128 KB
	//     Medalist of Machine 2): any interleaving costs a seek, which
	//     is why the paper sees no relative ST advantage there.
	counters       Counters
	tracker        headTracker
	directCounters Counters
	directTracker  headTracker

	// free holds released extents by size, reused by AllocN. Reused
	// pages are NOT zeroed: files track their own logical size and
	// never read beyond what was written, exactly like blocks of a
	// deleted file reused by a real filesystem.
	free map[int][]PageID
}

// CacheSegments is the number of concurrently-tracked sequential
// streams under the segmented-cache model, a coarse stand-in for the
// read segments of late-90s drive caches. Two segments are enough for
// ST's per-tree DFS streams and a reader/writer stream pair, but not
// for the many leaf fronts PQ's sweep advances through or the fan-in
// of a merge — the distinction Section 6.2 turns on.
const CacheSegments = 2

// PrefetchPages is the forward window each tracked stream covers: a
// drive that has positioned its head streams the whole track into its
// cache segment, so a request up to PrefetchPages ahead of a tracked
// position is served without mechanical work (32 KB at 8 KB pages —
// the paper's "may even reside on the same track" observation in
// Section 6.2).
const PrefetchPages = 4

// headTracker classifies page accesses as sequential when they re-hit
// or run ahead of one of the most recently active streams within the
// prefetch window.
type headTracker struct {
	segs []PageID
	max  int
}

func (h *headTracker) access(p PageID) bool {
	for i, pos := range h.segs {
		if p >= pos && p <= pos+PrefetchPages {
			copy(h.segs[1:i+1], h.segs[:i])
			h.segs[0] = p
			return true
		}
	}
	if len(h.segs) < h.max {
		h.segs = append(h.segs, 0)
	}
	copy(h.segs[1:], h.segs[:len(h.segs)-1])
	if len(h.segs) > 0 {
		h.segs[0] = p
	}
	return false
}

func (h *headTracker) reset() { h.segs = h.segs[:0] }

// ErrPageBounds is returned for accesses to unallocated pages.
var ErrPageBounds = errors.New("iosim: page out of bounds")

// NewStore creates an empty simulated disk with the given page size.
// Sizes below 64 bytes are rejected to keep node layouts sane.
func NewStore(pageSize int) *Store {
	if pageSize < 64 {
		panic(fmt.Sprintf("iosim: page size %d too small", pageSize))
	}
	return &Store{
		pageSize:      pageSize,
		tracker:       headTracker{max: CacheSegments},
		directTracker: headTracker{max: 1},
	}
}

// PageSize returns the size of each page in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// NumPages returns the number of allocated pages.
func (s *Store) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// FreePages returns how many of the allocated pages sit in released
// extents awaiting reuse; NumPages minus FreePages is what live files
// and indexes occupy.
func (s *Store) FreePages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := 0
	for n, extents := range s.free {
		free += n * len(extents)
	}
	return free
}

// Counters returns the accumulated access counters under the
// segmented-cache model (drives with a large on-disk buffer).
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// DirectCounters returns the counters under the single-stream model
// (drives whose cache cannot track several sequential streams, like
// Machine 2's 128 KB Medalist).
func (s *Store) DirectCounters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.directCounters
}

// ResetCounters zeroes both counter sets (allocation state is kept).
// Head positions are also forgotten so the next access is random,
// matching a cold start.
func (s *Store) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = Counters{}
	s.directCounters = Counters{}
	s.tracker.reset()
	s.directTracker.reset()
}

// Alloc allocates one zeroed page and returns its ID. Allocation does
// not count as I/O; the paper charges only reads and writes.
func (s *Store) Alloc() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := PageID(len(s.pages))
	s.pages = append(s.pages, make([]byte, s.pageSize))
	return id
}

// AllocN allocates n contiguous pages and returns the first ID.
// Contiguity is what makes later sequential scans cheap. Freshly grown
// pages are zeroed; released extents of the same size are reused
// as-is (see Release).
func (s *Store) AllocN(n int) PageID {
	if n <= 0 {
		panic("iosim: AllocN requires n > 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lst := s.free[n]; len(lst) > 0 {
		id := lst[len(lst)-1]
		s.free[n] = lst[:len(lst)-1]
		return id
	}
	id := PageID(len(s.pages))
	for i := 0; i < n; i++ {
		s.pages = append(s.pages, make([]byte, s.pageSize))
	}
	return id
}

// Release returns an extent of n contiguous pages starting at first to
// the allocator for reuse. The caller must no longer read or write the
// pages through stale references; iosim.File.Release is the intended
// entry point. Releasing is free in simulated time (deleting a temp
// file costs no data transfer).
func (s *Store) Release(first PageID, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(first)+n > len(s.pages) {
		panic(fmt.Sprintf("iosim: release of unallocated extent %d+%d", first, n))
	}
	if s.free == nil {
		s.free = make(map[int][]PageID)
	}
	s.free[n] = append(s.free[n], first)
}

// ReadPage returns the contents of page p. The returned slice is the
// store's internal buffer: callers must treat it as read-only and must
// not retain it across a WritePage to the same page. This zero-copy
// contract mirrors the memory-mapped BTE the paper uses for R-trees.
func (s *Store) ReadPage(p PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(p) >= len(s.pages) {
		return nil, fmt.Errorf("%w: read %d of %d", ErrPageBounds, p, len(s.pages))
	}
	s.note(p, true)
	return s.pages[p], nil
}

// WritePage replaces the contents of page p with src, which must be
// exactly one page long.
func (s *Store) WritePage(p PageID, src []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(p) >= len(s.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, p, len(s.pages))
	}
	if len(src) != s.pageSize {
		return fmt.Errorf("iosim: write of %d bytes to %d-byte page", len(src), s.pageSize)
	}
	s.note(p, false)
	copy(s.pages[p], src)
	return nil
}

// WritablePage returns a writable view of page p, counting one page
// write. It is the in-place counterpart of WritePage for builders that
// fill a page incrementally (e.g. R-tree bulk loading).
func (s *Store) WritablePage(p PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(p) >= len(s.pages) {
		return nil, fmt.Errorf("%w: write %d of %d", ErrPageBounds, p, len(s.pages))
	}
	s.note(p, false)
	return s.pages[p], nil
}

// note records one access to page p under both drive models.
func (s *Store) note(p PageID, read bool) {
	record(&s.counters, s.tracker.access(p), read)
	record(&s.directCounters, s.directTracker.access(p), read)
}

func record(c *Counters, seq, read bool) {
	switch {
	case read && seq:
		c.SeqReads++
	case read:
		c.RandReads++
	case seq:
		c.SeqWrites++
	default:
		c.RandWrites++
	}
}
