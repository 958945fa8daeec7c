// Package errs defines the sentinel errors shared between the internal
// engine layers and the public sudaf package. Internal code wraps these
// with fmt.Errorf("%w ...") at the point where the condition is detected,
// so callers of the public API can classify failures with errors.Is
// without parsing message strings. The root package re-exports each
// sentinel (sudaf.ErrParse = errs.ErrParse, ...).
package errs

import "errors"

var (
	// ErrUnknownTable marks a reference to a table absent from the catalog.
	ErrUnknownTable = errors.New("unknown table")
	// ErrUnknownUDAF marks a call to an aggregate that is neither a SQL
	// built-in nor a registered UDAF.
	ErrUnknownUDAF = errors.New("unknown aggregate")
	// ErrParse marks a SQL or UDAF-expression syntax error.
	ErrParse = errors.New("parse error")
	// ErrNumericFault marks a NaN/±Inf aggregate output rejected under the
	// strict numeric policy.
	ErrNumericFault = errors.New("numeric domain fault")
	// ErrCanceled marks a query stopped by context cancellation or a
	// deadline. Errors wrapping it also wrap the originating context
	// error, so errors.Is(err, context.Canceled) keeps working.
	ErrCanceled = errors.New("query canceled")
	// ErrEngineClosed marks work rejected because the engine is closed or
	// draining: Close stops admitting queries, appends and
	// materializations, and resolves queued admission waiters with this
	// sentinel.
	ErrEngineClosed = errors.New("engine closed")
	// ErrOverloaded marks a request shed by the serving layer's overload
	// protection: the admission queue, a per-session concurrency cap or
	// the session table was full. Overloaded requests were rejected
	// before execution, so retrying after backoff is always safe.
	ErrOverloaded = errors.New("server overloaded")
)
