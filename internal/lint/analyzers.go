package lint

// Suite returns every analyzer, in the order findings are most useful
// to read: concurrency invariants first, mechanical hygiene last.
func Suite() []*Analyzer {
	return []*Analyzer{PoolReturn, ErrSentinel}
}
