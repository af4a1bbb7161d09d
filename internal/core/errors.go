package core

import (
	"context"
	"errors"
	"fmt"
)

// Typed sentinel errors for the join paths. They are defined here —
// the lowest layer that can name them without import cycles — and
// re-exported by the public unijoin package, so errors.Is works
// identically on values returned from either layer.
var (
	// ErrNeedsIndex reports that an algorithm requiring R-tree inputs
	// (ST, BFRJ, INL, the seeded-tree join) was handed a relation
	// without one.
	ErrNeedsIndex = errors.New("unijoin: algorithm requires indexed inputs")

	// ErrNilRelation reports a nil relation or an input with neither a
	// record file nor an index.
	ErrNilRelation = errors.New("unijoin: nil relation")

	// ErrCanceled reports that the context governing a join was
	// canceled before the join completed. It wraps context.Canceled,
	// so errors.Is(err, context.Canceled) also matches; joins that hit
	// a deadline additionally match context.DeadlineExceeded through
	// the returned error's cause chain.
	ErrCanceled = fmt.Errorf("unijoin: query canceled: %w", context.Canceled)
)

// canceledError carries the concrete context error (context.Canceled
// or context.DeadlineExceeded) alongside the ErrCanceled sentinel.
type canceledError struct{ cause error }

func (e *canceledError) Error() string {
	return "unijoin: query canceled: " + e.cause.Error()
}

func (e *canceledError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// needsIndexErr builds the per-algorithm ErrNeedsIndex error.
func needsIndexErr(alg string) error {
	return fmt.Errorf("%w: %s requires R-trees on both inputs", ErrNeedsIndex, alg)
}

// WrapCanceled normalizes context errors bubbling out of a join into
// the ErrCanceled chain; other errors pass through unchanged. The
// public unijoin layer uses it to normalize errors from paths that do
// not go through this package (the parallel engine).
func WrapCanceled(err error) error { return wrapCanceled(err) }

// wrapCanceled normalizes context errors bubbling out of a join into
// the ErrCanceled chain; other errors pass through unchanged.
func wrapCanceled(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &canceledError{cause: err}
	}
	return err
}
