package unijoin

import (
	"unijoin/internal/core"
)

// Typed sentinel errors. Every error returned by the Query API can be
// classified with errors.Is against these values.
var (
	// ErrNeedsIndex reports that the selected algorithm requires
	// R-tree indexes its inputs do not have (ST and BFRJ need both
	// sides indexed; call Relation.BuildIndex first, or use AlgPQ,
	// which accepts any mix of indexed and non-indexed inputs).
	ErrNeedsIndex = core.ErrNeedsIndex

	// ErrNilRelation reports that a nil *Relation was passed to a
	// query or join.
	ErrNilRelation = core.ErrNilRelation

	// ErrCanceled reports that the context governing Query.Run was
	// canceled before the join finished. It wraps context.Canceled, so
	// both errors.Is(err, ErrCanceled) and errors.Is(err,
	// context.Canceled) match; when a deadline caused the cancellation
	// the error also matches context.DeadlineExceeded.
	ErrCanceled = core.ErrCanceled

	// ErrSweepOverflow reports that SSSJ's in-memory sweep structures
	// outgrew the memory budget (adversarial inputs only; see
	// core.SSSJPartitioned for the paper's fallback).
	ErrSweepOverflow = core.ErrSweepOverflow
)
