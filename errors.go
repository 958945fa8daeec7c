package sudaf

import "sudaf/internal/errs"

// Sentinel errors returned (wrapped) by Query, QueryContext and
// QueryBatches. Match them with errors.Is; the wrapped message carries
// the specifics (which table, which aggregate, which group):
//
//	_, err := eng.Query(`SELECT qm(price) FROM nosuch`, sudaf.Rewrite)
//	if errors.Is(err, sudaf.ErrUnknownTable) { ... }
var (
	// ErrUnknownTable reports a FROM reference to a table that was never
	// Register-ed.
	ErrUnknownTable = errs.ErrUnknownTable
	// ErrUnknownUDAF reports an aggregate call that is neither a SQL
	// built-in nor a registered UDAF.
	ErrUnknownUDAF = errs.ErrUnknownUDAF
	// ErrParse reports a SQL syntax error.
	ErrParse = errs.ErrParse
	// ErrNumericFault reports a NaN/±Inf aggregate output rejected under
	// NumericStrict. Under NumericPermissive the value is emitted and
	// counted in Result.NumericFaults instead.
	ErrNumericFault = errs.ErrNumericFault
	// ErrCanceled reports a query stopped by context cancellation, a
	// deadline, or the engine's QueryTimeout. The originating context
	// error stays wrapped, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) keep working too.
	ErrCanceled = errs.ErrCanceled
	// ErrEngineClosed reports work rejected because Engine.Close was
	// called: new queries, appends and materializations fail with it, and
	// callers queued for an admission slot when the close began resolve
	// with it instead of hanging. Work admitted before the close runs to
	// completion and never sees this error.
	ErrEngineClosed = errs.ErrEngineClosed
	// ErrOverloaded reports a request shed by the network serving layer
	// (internal/server): the bounded admission queue, a per-session
	// concurrency cap, or the session table was full. Shedding happens
	// before any execution, so overloaded requests are always safe to
	// retry after backoff.
	ErrOverloaded = errs.ErrOverloaded
)
