package lint

// Suite returns every analyzer.
func Suite() []*Analyzer {
	return []*Analyzer{ErrSentinel}
}
