package httpapi

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unijoin/internal/wire"
)

// The flush rule both Streams share. A Stream appends whole frames (or
// whole NDJSON lines) to one pending buffer and writes it — one Write
// and one Flush — in exactly three cases: the buffer reached
// FlushBytes; its oldest byte has waited flushLinger; or the stream
// ended, with its terminal summary or error (or with Close, which
// writes what is left). Frames and lines are thus not written one at a
// time, and a producer that stalls holds its last bytes back by at
// most one linger. Neither value is configurable.
const (
	// FlushBytes is the pending size that triggers a write. The
	// router's shard transport reads through a buffer of the same size
	// (shard.NewRouter), so it takes such a write in reads as large.
	FlushBytes = 64 << 10
	// flushLinger bounds how long a produced byte waits for company.
	flushLinger = 2 * time.Millisecond
)

// maxPooledBytes caps what a returned pending buffer may retain: a
// freak batch (a huge windowed record set) should not pin megabytes in
// the pool for the rest of the process's life.
const maxPooledBytes = 1 << 20

// pendingBuf is a stream's pending bytes, pooled across responses
// together with the linger timer that writes them. It is an io.Writer
// appending to b, so the LineWriter's JSON encoder — bound to it once
// — marshals each line straight into the buffer. The timer is bound
// to the buffer too and fires into whichever stream owns it, so a
// pooled buffer costs a stream no allocation.
type pendingBuf struct {
	b      []byte
	enc    *json.Encoder
	linger *time.Timer
	owner  atomic.Pointer[sink]
}

func (p *pendingBuf) Write(q []byte) (int, error) {
	p.b = append(p.b, q...)
	return len(q), nil
}

// expire is the linger timer's callback. A firing that outlived its
// stream finds no owner, or an owner that no longer holds p.
func (p *pendingBuf) expire() {
	if s := p.owner.Load(); s != nil {
		s.expire(p)
	}
}

var pendingLoans atomic.Int64

// PendingBuffers returns how many pending buffers, with their linger
// timers, streams hold: taken by a stream's first append, given up by
// its Close. It is test instrumentation like pairbuf.Outstanding, read
// by internal/leakcheck; production pays one atomic add per stream
// that wrote and one per Close, none per batch.
func PendingBuffers() int64 { return pendingLoans.Load() }

var pendingPool = sync.Pool{New: func() any {
	p := &pendingBuf{b: make([]byte, 0, FlushBytes)}
	p.enc = json.NewEncoder(p)
	p.linger = time.AfterFunc(time.Hour, p.expire)
	p.linger.Stop()
	return p
}}

// frameCount is the frames and bytes of one frame type.
type frameCount struct{ frames, bytes int64 }

// sink applies the flush rule for one response. The producer's
// appends and the linger timer's writes are serialised by mu; the
// producer calls buffer, appends, then commit, all under mu. Close
// writes what is left, releases the buffer and turns a pending linger
// into a no-op, so nothing is written after it.
type sink struct {
	w           http.ResponseWriter
	flusher     http.Flusher
	contentType string
	// observe, when set, receives the per-type counts of the frames
	// each successful write carried (FrameWriter); unsent holds the
	// counts of the frames pending. Both are used under mu.
	observe func(t wire.Type, frames, bytes int64)
	unsent  [wire.TypeEnd + 1]frameCount

	mu      sync.Mutex
	pb      *pendingBuf
	started bool
	broken  bool // a write failed part-way: nothing may follow it
	armed   bool // the linger is counting down for the pending bytes
	due     time.Time
}

func newSink(w http.ResponseWriter, contentType string) sink {
	f, _ := w.(http.Flusher)
	return sink{w: w, flusher: f, contentType: contentType}
}

// Started reports whether any byte of the stream has been queued — the
// point of no return for the HTTP status code, since queued bytes are
// written by the flush rule whatever the producer does next.
func (s *sink) Started() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started
}

// buffer returns the pending buffer for an append. Caller holds mu.
func (s *sink) buffer() *pendingBuf {
	if s.pb == nil {
		s.pb = pendingPool.Get().(*pendingBuf)
		s.pb.owner.Store(s)
		pendingLoans.Add(1)
	}
	return s.pb
}

// commit applies the flush rule after an append, the first of which
// commits the stream (Content-Type set, Started true): write now when
// the append was terminal or filled the buffer, otherwise make sure
// the linger is counting down. Caller holds mu.
func (s *sink) commit(final bool) {
	if !s.started {
		s.w.Header().Set("Content-Type", s.contentType)
		s.started = true
	}
	switch {
	case final || len(s.pb.b) >= FlushBytes:
		s.write()
	case !s.armed && len(s.pb.b) > 0:
		s.armed = true
		s.due = time.Now().Add(flushLinger)
		s.pb.linger.Reset(flushLinger)
	}
}

// write sends the pending bytes as one Write and one Flush, then
// empties the buffer and settles the frame counts: reported when the
// write went out, dropped with their bytes when it failed. A failed
// write drops whole frames or lines, so the stream stays aligned —
// unless the writer took part of them; then the stream is broken and
// writes nothing more. Caller holds mu.
func (s *sink) write() {
	s.armed = false
	if s.pb == nil || len(s.pb.b) == 0 {
		return
	}
	ok := false
	if !s.broken {
		n, err := s.w.Write(s.pb.b)
		ok = err == nil
		if ok && s.flusher != nil {
			s.flusher.Flush()
		}
		s.broken = !ok && n > 0
	}
	s.pb.b = s.pb.b[:0]
	for t, c := range s.unsent {
		if ok && c.frames > 0 && s.observe != nil {
			s.observe(wire.Type(t), c.frames, c.bytes)
		}
		s.unsent[t] = frameCount{}
	}
}

// expire runs the linger for p. A firing that a size flush and a
// re-arm have overtaken finds the deadline still ahead and waits for
// it; one that finds the bytes already written, or the stream closed
// or holding another buffer, does nothing.
func (s *sink) expire(p *pendingBuf) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed || s.pb != p {
		return
	}
	if wait := time.Until(s.due); wait > 0 {
		p.linger.Reset(wait)
		return
	}
	s.write()
}

// Close ends the stream: it writes whatever is still pending, then
// disarms the linger and releases the buffer, so nothing is written
// after it returns. Safe to defer, safe to call twice.
func (s *sink) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.write()
	if s.pb != nil {
		s.pb.linger.Stop()
		s.pb.owner.Store(nil)
		if cap(s.pb.b) <= maxPooledBytes {
			s.pb.b = s.pb.b[:0]
			pendingPool.Put(s.pb)
		}
		s.pb = nil
		pendingLoans.Add(-1)
	}
}
