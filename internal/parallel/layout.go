package parallel

import (
	"context"
	"fmt"
	"sync"
	"time"

	"unijoin/internal/geom"
	"unijoin/internal/pairbuf"
)

// A layout is a join's stripes, ready to sweep: the partitioner that
// cut them, the class rule the join applies in each (own and winXLo)
// and, for each stripe, both inputs' records that reach it — split by
// class, each class gathered in input order and put in geom.ByLowerY
// order — with the distribution's counters. Building one is everything
// Join does ahead of its sweep, the prefix Report.PartitionWall times;
// sweeping one is the rest. Join builds a layout for itself in pooled
// fragments and hands them back when it returns; a Slot builds one in
// plain memory and keeps it for the joins after, which then run only
// the kernel. A layout is never written once built, so any number of
// joins may sweep it at once.
type layout struct {
	part *Partitioner
	// own is the interval of reference points the join reports at all
	// (Options.Own; nil: everything), to which classes clamps each
	// stripe's OwnerRange, so that one range settles both which stripe
	// and whether this join reports a pair. winXLo is the window's left
	// edge (geom.NoWindow without one), to which classes clips each
	// record's.
	own     *geom.Interval
	winXLo  geom.Coord
	stripes []stripe

	input, replicated, local, boundary int64 // as in distribution

	// requested is the stripe count asked of the partitioner, auto
	// what stripeCount chose (0 under a Partitions override): together
	// they say which joins' K the layout is (fits).
	requested, auto int

	// dist holds the pooled fragments a Join's stripes live in, for
	// release; nil for a layout in plain memory, whose stripes take up
	// bytes bytes.
	dist  *distribution
	bytes int64
}

// classes appends the records of recs that are of class A in stripe i
// to a and those of class B to b, in input order, and returns both.
// A record's class is decided by its left edge clipped to the window's,
// x: class A when the stripe's owner range contains x
// (geom.Interval.Contains, the ownership rule itself), so that the
// record starts inside the stripe; class B when x lies left of the
// range, so that it entered the stripe from the left; and no class,
// nowhere, when x lies at or past the range's end. A pair's reference
// point is the larger x of its two members, so the stripe owns exactly
// its A×A, A×B and B×A pairs. A stripe whose range is empty (outside
// Own) owns nothing, and keeps no B records to meet an A that is not
// there. a may share recs' memory from its start: a record is appended
// to it only after it has been read.
func (l *layout) classes(i int, recs, a, b []geom.Record) ([]geom.Record, []geom.Record) {
	lo, hi := l.part.OwnerRange(i)
	if l.own != nil {
		lo, hi = max(lo, l.own.Lo), min(hi, l.own.Hi)
	}
	own := geom.Interval{Lo: lo, Hi: hi}
	for _, r := range recs {
		switch x := max(r.Rect.XLo, l.winXLo); {
		case own.Contains(x):
			a = append(a, r)
		case x < lo && lo < hi:
			b = append(b, r)
		}
	}
	return a, b
}

// A stripe is the records of both inputs that reach one stripe.
type stripe struct {
	a, b side
}

// records returns how many records the stripe holds, both sides.
func (s *stripe) records() int64 {
	return int64(len(s.a.A) + len(s.a.B) + len(s.b.A) + len(s.b.B))
}

// A side is one input's records in one stripe, split by their class
// there (layout.classes), each class in geom.ByLowerY order. A pair
// is this stripe's to report exactly when one member is of class A: a
// pair's reference point is the larger clipped left edge of the two,
// so it lies in the stripe's owner range when the larger is an A
// member's and left of the range when both are B. A record with no
// class here would put the point at or past the range's end, and is
// not in the stripe at all.
type side struct {
	A, B []geom.Record
}

// arrange builds the layout of a join of a and b under o (defaults
// filled in): the window narrows the inputs, the stripe count and the
// boundaries are resolved, both inputs are distributed, and every
// stripe is gathered, split by class and sorted. With
// owned set the stripes are copied into plain memory and the fragments
// go back to the pool at once; otherwise they stay in the fragments,
// for release.
func arrange(ctx context.Context, a, b []geom.Record, o Options, owned bool) (*layout, error) {
	// The window acts here, once: each input is narrowed to the records
	// that intersect it, and the stripe count, the boundary sample and
	// the distribution read only what is left.
	if o.Window != nil {
		a, b = narrow(a, o.Window), narrow(b, o.Window)
		defer func() {
			pairbuf.PutRecords(a)
			pairbuf.PutRecords(b)
		}()
	}
	var auto int
	if o.Partitions <= 0 {
		auto = stripeCount(measure(a), measure(b), o.Universe, o.Window)
		o.Partitions = max(o.Workers, auto)
	}
	// The stripes sit at the quantiles of the merged per-input samples:
	// the ones given, or else one strided sample per input. A window's
	// samples are taken and sorted by every query, so they are sized for
	// the stripes the window is worth (see samplesPerStripe).
	samples := o.SortedSamples
	if len(samples) == 0 {
		limit := sampleMax
		if o.Window != nil {
			limit = min(sampleMax, o.Partitions*samplesPerStripe)
		}
		samples = centerSamples(o.Partitions, limit, a, b)
	}
	winXLo := geom.NoWindow
	if o.Window != nil {
		winXLo = o.Window.XLo
	}
	l := &layout{
		part:      NewPartitionerFromSamples(o.Universe, o.Partitions, samples...),
		own:       o.Own,
		winXLo:    winXLo,
		requested: o.Partitions,
		auto:      auto,
	}
	d, err := distribute(ctx, l.part, a, b, o.Workers)
	if err != nil {
		return nil, err
	}
	l.input, l.replicated, l.local, l.boundary = d.input, d.replicated, d.local, d.boundary
	l.stripes, l.bytes = d.stripes(l, owned)
	if owned {
		d.release()
	} else {
		l.dist = d
	}
	// A build the context canceled is not a layout, even when it got to
	// the end: a Slot must keep nothing from it.
	if err := ctx.Err(); err != nil {
		l.release()
		return nil, err
	}
	return l, nil
}

// fits reports whether the layout is the one o (defaults filled in)
// would build over the same inputs, as far as the stripe count goes:
// the count o asks for, or under no override the larger of its worker
// count and what stripeCount chose for the inputs. A layout an override
// built never knew the latter (auto is 0; stripeCount is at least 1),
// so it fits no join without one.
func (l *layout) fits(o Options) bool {
	want := o.Partitions
	if want <= 0 {
		if l.auto == 0 {
			return false
		}
		want = max(o.Workers, l.auto)
	}
	return want == l.requested
}

// release hands a Join's fragments back to the pool; the layout must
// not be swept afterwards. It does nothing to a layout in plain memory.
func (l *layout) release() {
	if l.dist != nil {
		l.dist.release()
	}
}

// A Slot keeps the stripe layout of one left input's latest unwindowed
// join, in plain memory, for the joins after it: a relation version
// holds one (ingest.Version.Stripes), so a join repeated over the same
// pinned version pair partitions once and then runs only the kernel.
// The layout is keyed by everything it depends on besides the left
// input: the right input, named by the caller's partner key; the
// universe; the Own interval; and the stripe count, which Options
// .Partitions fixes or, left to the engine, stripeCount and the worker
// count resolve (layout.fits) — the worker count is otherwise not part
// of it, since distribution does not depend on it. A join under another
// key builds its own layout and replaces the one held, so a slot holds
// at most one, and no layout outlives the slot's owner.
//
// Concurrent first joins under one key build the layout once: the first
// builds while the others wait for it (or for their own context). A
// build that is canceled or fails leaves nothing behind, and a waiter
// then builds in its stead. The zero Slot is empty and ready for use.
type Slot struct {
	mu  sync.Mutex
	cur *slotEntry
}

// slotKey is what a held layout depends on besides the slot's left
// input and the stripe count.
type slotKey struct {
	partner  uint64
	universe geom.Rect
	own      geom.Interval
	owned    bool
}

// slotEntry is one layout, built or being built, under its key.
type slotEntry struct {
	key   slotKey
	ready chan struct{} // closed when the build has finished, either way
	lay   *layout       // set under Slot.mu once built; nil while building
}

// Join joins a, the slot's left input, with b, the right input partner
// names, as the package-level Join does — Report, pair sequence and
// callback alike — taking the stripe layout from the slot when it
// holds the one this join needs (Report.Reused) and building it there
// otherwise. The caller must hand the same a with every call on one
// slot, and the same b with every call naming one partner. A windowed
// join is refused: its layout depends on the window, which a slot does
// not key.
func (s *Slot) Join(ctx context.Context, partner uint64, a, b []geom.Record, o Options) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, err := o.withDefaults()
	if err != nil {
		return Report{}, err
	}
	if o.Window != nil {
		return Report{}, fmt.Errorf("parallel: a Slot keeps unwindowed layouts only")
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	start := time.Now()
	key := slotKey{partner: partner, universe: o.Universe}
	if o.Own != nil {
		key.own, key.owned = *o.Own, true
	}
	l, built, err := s.get(ctx, key, a, b, o)
	if err != nil {
		return Report{}, err
	}
	rep, err := l.sweep(ctx, o, start)
	if err != nil {
		return Report{}, err
	}
	rep.Reused = !built
	return rep, nil
}

// get returns the layout under key that fits o, building it when
// the slot holds none, and whether this call built it.
func (s *Slot) get(ctx context.Context, key slotKey, a, b []geom.Record, o Options) (*layout, bool, error) {
	for {
		s.mu.Lock()
		e := s.cur
		if e != nil && e.key == key && (e.lay == nil || e.lay.fits(o)) {
			l := e.lay
			s.mu.Unlock()
			if l != nil {
				return l, false, nil
			}
			select { // being built: wait, then look again
			case <-e.ready:
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		e = &slotEntry{key: key, ready: make(chan struct{})}
		s.cur = e
		s.mu.Unlock()
		l, err := arrange(ctx, a, b, o, true)
		s.mu.Lock()
		if err == nil {
			e.lay = l
		} else if s.cur == e {
			s.cur = nil
		}
		s.mu.Unlock()
		close(e.ready)
		return l, true, err
	}
}

// Bytes returns the memory the stripes the slot holds take up: both
// inputs' records, once per stripe they reach (0 when it holds none).
func (s *Slot) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil || s.cur.lay == nil {
		return 0
	}
	return s.cur.lay.bytes
}
