// Package window implements sliding-window aggregation over canonical
// aggregation states: the classic two-stacks-of-⊕ queue (Okasaki-style
// functional queue specialized to a monoid fold), which supports Push
// (newest row enters), Evict (oldest row leaves) and Value (fold of the
// current window) in O(1) amortized time using only the state's ⊕ —
// no inverse required, so it covers min/max exactly like sum/prod.
//
// Because the engine pins query answers bitwise (windowed results must
// be bit-identical to a cold query over the same row range, and cold
// queries fold morsel partials in a fixed chunked order), the O(1)
// two-stacks value is only used when it is provably bit-equal to the
// engine's chunked fold for the values seen so far — i.e. when every
// value in the window is association-free under ⊕ (see exact below).
// Otherwise Value falls back to a chunked in-order refold that
// replicates the executor's morsel merge structure exactly. The fold
// tracks how often each path ran (FastValues / Refolds) so callers can
// export the split as metrics.
package window

import (
	"math"

	"sudaf/internal/canonical"
)

// Fold is a sliding-window ⊕-fold over one canonical aggregation state.
// Values pushed are the state's per-tuple translations F(base(row)) —
// the caller applies the scalar chain; the fold only sees float64s.
//
// A Fold is not safe for concurrent use; each subscription/query owns
// its own.
type Fold struct {
	st    canonical.State
	chunk int // executor morsel size the fallback refold replicates

	// Back stack: receives pushes. backFold is the running ⊕ of
	// backVals in push order.
	backVals []float64
	backFold float64

	// Front stack: receives flips; top (end of slice) is the oldest
	// row. frontFolds[i] is the ⊕ of frontVals[i..0] in chronological
	// order (frontVals[i] first), so the top fold covers the whole
	// front.
	frontVals  []float64
	frontFolds []float64

	// violations counts window values that fail the association-free
	// predicate; the O(1) path is valid iff it is zero.
	violations int

	evicts     int64
	fastValues int64
	refolds    int64
}

// New creates a Fold over st. chunk is the executor's morsel row count
// (exec.MorselRows); the fallback refold merges chunk-sized partials in
// order to match cold-query bit patterns. chunk <= 0 disables chunking
// (one flat fold).
func New(st canonical.State, chunk int) *Fold {
	f := &Fold{st: st, chunk: chunk}
	f.backFold = st.MergeIdentity()
	return f
}

// exact reports whether v is association-free under the state's ⊕: any
// parenthesization of a fold containing only such values yields the
// same bits, so the two-stacks value equals the executor's chunked
// fold.
//
//   - count: every value is the constant 1 — always exact.
//   - min/max: comparisons are order-insensitive except that the
//     executor's in-morsel kernels use first-wins compare-update while
//     cross-morsel merges use math.Min/math.Max, which disagree on the
//     sign of a ±0 tie and on NaN payload bits (compare-update keeps
//     the operand's bits, math.Min returns the canonical NaN). Exact
//     iff v is neither -0.0 nor NaN.
//   - sum: float addition associates exactly while every partial sum is
//     an exactly-representable integer. Exact iff v is an integer with
//     |v| < 2^20 (any window below ~2^32 rows then keeps all partials
//     under 2^52).
//   - prod: sign is an XOR and the magnitude stays in {0,1}, both
//     association-free. Exact iff v ∈ {0, 1, -1}.
func (f *Fold) exact(v float64) bool {
	switch f.st.Op {
	case canonical.OpCount:
		return true
	case canonical.OpMin, canonical.OpMax:
		return v == v && !(v == 0 && math.Signbit(v))
	case canonical.OpProd:
		return v == 0 || v == 1 || v == -1
	default: // OpSum
		return v == math.Trunc(v) && math.Abs(v) < float64(1<<20)
	}
}

// update replicates the executor's in-morsel kernel accumulate step:
// += for Σ/count, *= for Π, first-wins compare-update (NaN-sticky) for
// min/max.
func (f *Fold) update(acc, v float64) float64 {
	switch f.st.Op {
	case canonical.OpProd:
		return acc * v
	case canonical.OpMin:
		if v < acc || v != v {
			return v
		}
		return acc
	case canonical.OpMax:
		if v > acc || v != v {
			return v
		}
		return acc
	default:
		return acc + v
	}
}

// Push appends the newest row's translated value to the window.
func (f *Fold) Push(v float64) {
	f.backVals = append(f.backVals, v)
	f.backFold = f.st.Merge(f.backFold, v)
	if !f.exact(v) {
		f.violations++
	}
}

// Evict removes the oldest row from the window. It is a no-op on an
// empty window.
func (f *Fold) Evict() {
	if len(f.frontVals) == 0 {
		if len(f.backVals) == 0 {
			return
		}
		f.flip()
	}
	top := len(f.frontVals) - 1
	v := f.frontVals[top]
	f.frontVals = f.frontVals[:top]
	f.frontFolds = f.frontFolds[:top]
	if !f.exact(v) {
		f.violations--
	}
	f.evicts++
}

// flip moves the whole back stack onto the front stack, computing the
// front's cumulative folds; each row is moved at most once between the
// stacks, so eviction stays O(1) amortized.
func (f *Fold) flip() {
	acc := f.st.MergeIdentity()
	for i := len(f.backVals) - 1; i >= 0; i-- {
		v := f.backVals[i]
		acc = f.st.Merge(v, acc)
		f.frontVals = append(f.frontVals, v)
		f.frontFolds = append(f.frontFolds, acc)
	}
	f.backVals = f.backVals[:0]
	f.backFold = f.st.MergeIdentity()
}

// Len returns the number of rows currently in the window.
func (f *Fold) Len() int { return len(f.frontVals) + len(f.backVals) }

// Value returns the ⊕-fold of the current window, bit-identical to the
// engine's cold chunked fold over the same rows: the O(1) two-stacks
// combination when every window value is association-free, a chunked
// in-order refold otherwise. An empty window yields the merge identity
// (matching a cold aggregate over zero rows). Every other value is the
// result of a State.Merge, so a NaN is always the canonical NaN.
func (f *Fold) Value() float64 {
	if f.violations == 0 {
		f.fastValues++
		if len(f.frontVals) == 0 {
			return f.backFold
		}
		return f.st.Merge(f.frontFolds[len(f.frontFolds)-1], f.backFold)
	}
	f.refolds++
	return f.refold()
}

// refold recomputes the window fold in chronological order with the
// executor's exact morsel structure: chunk-sized partials accumulated
// with kernel update semantics, merged left-to-right via the state's ⊕
// starting from the merge identity — the same shape exec.aggregate
// produces for a cold scan whose row 0 is the window start.
func (f *Fold) refold() float64 {
	acc := f.st.MergeIdentity()
	cacc := f.st.MergeIdentity()
	n := 0
	emit := func(v float64) {
		cacc = f.update(cacc, v)
		n++
		if f.chunk > 0 && n == f.chunk {
			acc = f.st.Merge(acc, cacc)
			cacc = f.st.MergeIdentity()
			n = 0
		}
	}
	for i := len(f.frontVals) - 1; i >= 0; i-- {
		emit(f.frontVals[i])
	}
	for _, v := range f.backVals {
		emit(v)
	}
	if n > 0 {
		acc = f.st.Merge(acc, cacc)
	}
	return acc
}

// Reset empties the window (tumbling-bucket reuse) without releasing
// the stacks' capacity.
func (f *Fold) Reset() {
	f.backVals = f.backVals[:0]
	f.frontVals = f.frontVals[:0]
	f.frontFolds = f.frontFolds[:0]
	f.backFold = f.st.MergeIdentity()
	f.violations = 0
}

// Stats returns the fold's lifetime counters: rows evicted, Value calls
// served by the O(1) two-stacks path, and Value calls that fell back to
// a chunked refold.
func (f *Fold) Stats() (evicts, fastValues, refolds int64) {
	return f.evicts, f.fastValues, f.refolds
}
