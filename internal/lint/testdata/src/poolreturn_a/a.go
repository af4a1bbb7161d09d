// Golden cases for the poolreturn analyzer.
package poolreturn_a

import (
	"io"

	"httpapi"
	"pairbuf"
	"wire"
)

// Acquire and release on every path: the canonical shape.
func balanced() {
	buf := pairbuf.Get()
	defer pairbuf.Put(buf)
	buf = append(buf, [2]uint32{1, 2})
}

// No release and no handoff: the buffer leaks from the pool.
func leak() {
	buf := pairbuf.Get() // want `no path releases it`
	buf = append(buf, [2]uint32{1, 2})
	_ = buf
}

// Discarding the result outright can never be balanced.
func discarded() {
	pairbuf.Get() // want `discarded`
}

func blank() {
	_ = pairbuf.Get() // want `assigned to _`
}

// Returning the buffer hands ownership to the caller.
func handoff() [][2]uint32 {
	buf := pairbuf.Get()
	return buf
}

// Storing into a struct hands ownership to the struct's owner.
type holder struct{ buf [][2]uint32 }

func stored(h *holder) {
	buf := pairbuf.Get()
	h.buf = buf
}

// Batcher acquisitions release via Release.
func batcher(emit func([][2]uint32)) {
	b := pairbuf.NewBatcher(emit)
	b.Emit(1, 2)
	b.Release()
}

func batcherLeak(emit func([][2]uint32)) {
	b := pairbuf.NewBatcher(emit) // want `no path releases it`
	b.Emit(1, 2)
}

// Encoder acquisitions release via Close.
func encoder(w io.Writer) {
	e := wire.NewEncoder(w)
	_ = e.WritePairs(nil)
	e.Close()
}

func encoderLeak(w io.Writer) {
	e := wire.NewEncoder(w) // want `no path releases it`
	_ = e.WritePairs(nil)
}

// Response streams hold pooled buffers whichever transport was
// negotiated; the handler's deferred Close returns them.
func stream() {
	out := httpapi.NewStream()
	defer out.Close()
	out.WritePairs(nil)
}

func streamLeak() {
	out := httpapi.NewStream() // want `httpapi.Stream acquired here but no path releases it with Close`
	out.WritePairs(nil)
}

func streamUseAfterClose() bool {
	out := httpapi.NewStream()
	out.Close()
	return out.Started() // want `used after its Close; the pooled httpapi.Stream`
}

// After Put the pooled slice belongs to the next borrower.
func useAfterPut() int {
	buf := pairbuf.Get()
	pairbuf.Put(buf)
	n := len(buf) // want `used after its pairbuf.Put`
	return n
}

// Rebinding after Put makes the variable live again.
func reboundAfterPut() int {
	buf := pairbuf.Get()
	pairbuf.Put(buf)
	buf = make([][2]uint32, 0, 4)
	return len(buf)
}

// Record fragments follow the same discipline through their own pair
// of functions.
func fragment() {
	recs := pairbuf.GetRecords()
	recs = append(recs, pairbuf.Record{ID: 1})
	pairbuf.PutRecords(recs)
}

func fragmentLeak() {
	recs := pairbuf.GetRecords() // want `no path releases it with pairbuf.PutRecords`
	recs = append(recs, pairbuf.Record{ID: 1})
	_ = recs
}

// Borrowed straight into a slot: the slot's owner releases it.
func fragmentSlots(buckets [][]pairbuf.Record) {
	for i := range buckets {
		buckets[i] = pairbuf.GetRecords()
	}
}

func useAfterPutRecords() int {
	recs := pairbuf.GetRecords()
	pairbuf.PutRecords(recs)
	return len(recs) // want `used after its pairbuf.PutRecords`
}
