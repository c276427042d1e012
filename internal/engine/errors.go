package engine

import (
	"context"
	"errors"
)

// Typed interruption errors. Detectors return these (possibly wrapped) when a
// run's context ends it early, so callers can distinguish "the user aborted"
// and "the deadline expired" from algorithmic failures with errors.Is.
var (
	// ErrCanceled reports that the run's context was canceled.
	ErrCanceled = errors.New("engine: run canceled")
	// ErrDeadline reports that the run's context deadline expired.
	ErrDeadline = errors.New("engine: run deadline exceeded")
)

// IsInterrupt reports whether err is one of the typed interruption errors
// (cancellation or deadline), directly or wrapped.
func IsInterrupt(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline)
}

// CtxErr maps a context error onto the engine's typed errors: nil stays nil,
// context.DeadlineExceeded becomes ErrDeadline, everything else (cancellation)
// becomes ErrCanceled.
func CtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return ErrCanceled
	}
}
