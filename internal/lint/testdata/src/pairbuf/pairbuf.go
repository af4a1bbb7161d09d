// Package pairbuf mirrors the real internal/pairbuf surface the
// poolreturn analyzer keys on (package name + function names).
package pairbuf

// Batcher mirrors the pooled emit adapter.
type Batcher struct{ buf [][2]uint32 }

func Get() [][2]uint32 { return make([][2]uint32, 0, 8) }

func Put(buf [][2]uint32) {}

// Record mirrors geom.Record for the fragment pool.
type Record struct{ ID uint32 }

func GetRecords() []Record { return nil }

func PutRecords(buf []Record) {}

func NewBatcher(fn func([][2]uint32)) *Batcher { return &Batcher{} }

func (b *Batcher) Emit(l, r uint32) {}

func (b *Batcher) Flush() {}

func (b *Batcher) Release() {}
