package core

import (
	"context"
	"fmt"

	"sudaf/internal/analyzer"
	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/obs"
	"sudaf/internal/rewrite"
	"sudaf/internal/sqlparse"
)

// scanProvider serves a pre-computed group result for a data plan and
// task registry, or reports it cannot (ok=false → the query falls back
// to its own scan). QueryBatch injects one into each replayed query's
// queryCtx so queries consume the batch's fused scans instead of
// scanning base data themselves.
type scanProvider func(dp *exec.DataPlan, reg *exec.TaskRegistry) (*exec.GroupResult, bool)

// planState is the unit the analyzer pipeline operates on: one aggregate
// query's plan, built up phase by phase (resolve → canonicalize → share
// → fuse → parallelize) and then executed by executePlan. Each field
// records which phase owns it; rules only touch their own phase's
// outputs plus earlier ones.
type planState struct {
	s    *Session
	qc   *queryCtx
	stmt *sqlparse.Stmt
	mode Mode

	// resolve
	planSpan *obs.Span // the "plan" span, open across the resolve steps
	dp       *exec.DataPlan
	calls    []*expr.Call
	spec     exec.OutputSpec
	reg      *exec.TaskRegistry

	// canonicalize
	slots     map[string]*slot
	slotOrder []string

	// share
	entry    *cache.GroupTable
	entryOK  bool
	missing  []*slot
	dpRun    *exec.DataPlan
	usedView string
	events   []string

	// fuse
	companions []*slot

	// parallelize
	fullHit bool
	gr      *exec.GroupResult // fused-scan result served by a provider
}

// guard runs f recovering panics into a degradation event: the cache is
// an accelerator, so any fault in it downgrades to recomputation from
// base data, never a failed query.
func (ps *planState) guard(stage string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			ps.events = append(ps.events, fmt.Sprintf(
				"cache: panic during %s (recovered); falling back to recomputation: %v", stage, r))
		}
	}()
	f()
}

// getSlot returns the slot for a bound state, creating it on first use —
// the per-query state deduplication (two aggregates needing Σx share one
// slot and one task).
func (ps *planState) getSlot(st canonical.State, positive bool) *slot {
	key := st.Key()
	if sl, ok := ps.slots[key]; ok {
		return sl
	}
	sl := &slot{st: st, positive: positive, taskIdx: -1}
	ps.slots[key] = sl
	ps.slotOrder = append(ps.slotOrder, key)
	return sl
}

// queryPipeline is the fixed analyzer pipeline every aggregate query
// flows through (single queries and batch replays alike). Phases:
//
//	resolve      — FROM/WHERE/GROUP BY resolution, data fingerprint,
//	               aggregate-call extraction
//	canonicalize — decompose calls into bound aggregation states and
//	               terminating-function finishers (or baseline tasks)
//	share        — consult the state cache (exact / Theorem 4.1 /
//	               sign-split), collect what is still missing, try
//	               aggregate-view roll-up rewriting
//	fuse         — register one deduplicated task per missing state
//	               (plus §5.3 sign-split companions) in the scan's
//	               task registry
//	parallelize  — decide scan elision (full cache hit) or adopt a
//	               batch-provided fused scan; the morsel scheduler
//	               parallelizes whatever scan remains
//
// Rules are mode-gated internally: baseline queries no-op through the
// share and fuse phases, rewrite queries through the cache lookups.
var queryPipeline = analyzer.Pipeline[*planState]{
	Phases: []analyzer.Phase[*planState]{
		{Name: "resolve", Rules: []analyzer.Rule[*planState]{
			{Name: "resolve-tables", Apply: ruleResolveTables},
			{Name: "classify-predicates", Apply: ruleClassifyPredicates},
			{Name: "resolve-grouping", Apply: ruleResolveGrouping},
			{Name: "fingerprint", Apply: ruleFingerprint},
			{Name: "extract-aggregates", Apply: ruleExtractAggregates},
		}},
		{Name: "canonicalize", Rules: []analyzer.Rule[*planState]{
			{Name: "bind-baseline", Apply: ruleBindBaseline},
			{Name: "bind-states", Apply: ruleBindStates},
		}},
		{Name: "share", Rules: []analyzer.Rule[*planState]{
			{Name: "lookup-cache", Apply: ruleLookupCache},
			{Name: "collect-missing", Apply: ruleCollectMissing},
			{Name: "rewrite-views", Apply: ruleRewriteViews},
		}},
		{Name: "fuse", Rules: []analyzer.Rule[*planState]{
			{Name: "register-tasks", Apply: ruleRegisterTasks},
		}},
		{Name: "parallelize", Rules: []analyzer.Rule[*planState]{
			{Name: "elide-scan", Apply: ruleElideScan},
			{Name: "fused-scan", Apply: ruleFusedScan},
		}},
	},
}

// ---- resolve phase ----

// ruleResolveTables opens the plan span and resolves the FROM list
// against the query's catalog snapshot.
func ruleResolveTables(_ context.Context, ps *planState) error {
	ps.planSpan = ps.qc.sp.Child("plan")
	ps.dp = ps.s.eng.NewDataPlan()
	return ps.dp.ResolveFrom(ps.qc.cat, ps.stmt)
}

// ruleClassifyPredicates splits WHERE into equi-joins and pushed-down
// per-table filters.
func ruleClassifyPredicates(_ context.Context, ps *planState) error {
	return ps.dp.ClassifyWhere(ps.qc.cat, ps.stmt)
}

// ruleResolveGrouping resolves the GROUP BY columns.
func ruleResolveGrouping(_ context.Context, ps *planState) error {
	return ps.dp.ResolveGroupBy(ps.qc.cat, ps.stmt)
}

// ruleFingerprint seals the data plan into its canonical cache
// fingerprint and closes the plan span.
func ruleFingerprint(_ context.Context, ps *planState) error {
	ps.dp.Seal(ps.stmt)
	ps.dpRun = ps.dp
	ps.planSpan.SetStr("fingerprint", ps.dp.Fingerprint)
	ps.planSpan.End()
	return nil
}

// ruleExtractAggregates replaces aggregate calls in the select list with
// placeholders and starts the output spec and task registry.
func ruleExtractAggregates(_ context.Context, ps *planState) error {
	items := make([]sqlparse.SelectItem, len(ps.stmt.Select))
	for i, item := range ps.stmt.Select {
		items[i] = sqlparse.SelectItem{
			Expr:  exec.ExtractAggCalls(item.Expr, ps.s.isAgg, &ps.calls),
			Alias: item.Alias,
		}
	}
	ps.spec = exec.OutputSpec{Items: items, Numeric: ps.s.NumericPolicySetting()}
	ps.reg = exec.NewTaskRegistry()
	return nil
}

// ---- canonicalize phase ----

// ruleBindBaseline (baseline mode only) compiles each aggregate call the
// way the baseline systems run it: built-ins native, UDAFs hardcoded.
func ruleBindBaseline(_ context.Context, ps *planState) error {
	if ps.mode != ModeBaseline {
		return nil
	}
	for _, call := range ps.calls {
		fin, err := ps.s.baselineFinisher(call, ps.reg)
		if err != nil {
			return err
		}
		ps.spec.Finishers = append(ps.spec.Finishers, fin)
		ps.spec.Labels = append(ps.spec.Labels, call.String())
	}
	return nil
}

// ruleBindStates (SUDAF modes) decomposes every aggregate call into
// bound aggregation states (deduplicated into slots) plus a terminating
// function finisher over the slots' value columns.
func ruleBindStates(_ context.Context, ps *planState) error {
	if ps.mode == ModeBaseline {
		return nil
	}
	ps.slots = map[string]*slot{}
	csp := ps.qc.sp.Child("canonicalize")
	for _, call := range ps.calls {
		form, err := ps.s.formFor(call.Name)
		if err != nil {
			return err
		}
		if len(call.Args) != len(form.Params) {
			return fmt.Errorf("%s takes %d argument(s), got %d", call.Name, len(form.Params), len(call.Args))
		}
		bind := map[string]expr.Node{}
		for i, p := range form.Params {
			bind[p] = call.Args[i]
		}
		callSlots := make([]*slot, len(form.States))
		for j, st := range form.States {
			bs := st
			if st.Op != canonical.OpCount {
				bs.Base = expr.Simplify(expr.Substitute(st.Base, bind))
			}
			callSlots[j] = ps.getSlot(bs, basePositive(ps.qc.cat, bs.Base, ps.dp.Tables()))
		}
		tfn, err := form.CompileT()
		if err != nil {
			return fmt.Errorf("%s: %w", call.Name, err)
		}
		cs := callSlots
		buf := make([]float64, len(cs))
		ps.spec.Finishers = append(ps.spec.Finishers, func(vals [][]float64, g int) float64 {
			for j, sl := range cs {
				buf[j] = vals[sl.finalIdx][g]
			}
			return tfn(buf)
		})
		ps.spec.Labels = append(ps.spec.Labels, call.String())
	}
	csp.SetInt("aggregates", int64(len(ps.calls)))
	csp.SetInt("states", int64(len(ps.slotOrder)))
	csp.End()
	return nil
}

// ---- share phase ----

// ruleLookupCache (share mode only) consults the query's cache snapshot
// for every slot: exact hit, Theorem 4.1 sharing, or §5.3 sign-split
// reconstruction. Guarded: a cache that panics behaves like a cache
// that misses.
func ruleLookupCache(_ context.Context, ps *planState) error {
	if ps.mode != ModeShare {
		return nil
	}
	qc := ps.qc
	lsp := qc.sp.Child("sharing-lookup")
	ps.guard("entry lookup", func() {
		ps.entry, ps.entryOK = qc.cache.Entry(ps.dp.Fingerprint)
	})
	for _, key := range ps.slotOrder {
		sl := ps.slots[key]
		ps.guard("state lookup", func() {
			vals, kind, ok := qc.cache.LookupKind(ps.dp.Fingerprint, sl.st, sl.positive)
			if ok {
				sl.cached = vals
			}
			switch kind {
			case cache.HitExact:
				qc.stats.CacheExactHits++
			case cache.HitShared:
				qc.stats.CacheSharedHits++
			case cache.HitSign:
				qc.stats.CacheSignHits++
			default:
				qc.stats.CacheMisses++
			}
		})
	}
	lsp.SetInt("exact", int64(qc.stats.CacheExactHits))
	lsp.SetInt("shared", int64(qc.stats.CacheSharedHits))
	lsp.SetInt("sign", int64(qc.stats.CacheSignHits))
	lsp.SetInt("miss", int64(qc.stats.CacheMisses))
	lsp.End()
	return nil
}

// ruleCollectMissing lists the slots the cache could not serve, in slot
// order (in rewrite mode — no cache — that is every slot).
func ruleCollectMissing(_ context.Context, ps *planState) error {
	for _, key := range ps.slotOrder {
		if sl := ps.slots[key]; sl.cached == nil {
			ps.missing = append(ps.missing, sl)
		}
	}
	return nil
}

// ruleRewriteViews tries aggregate-view roll-up rewriting (Q3 → RQ3')
// for the missing states: when a materialized state view subsumes the
// data part, the missing states compute from the view's partial states
// instead of base data.
func ruleRewriteViews(_ context.Context, ps *planState) error {
	if len(ps.missing) == 0 || !ps.s.ViewRewriting() || ps.entryOK {
		return nil
	}
	vsp := ps.qc.sp.Child("view-rewrite")
	if dpv, rollup, name := ps.s.tryViews(ps.qc, ps.dp, ps.missing); dpv != nil {
		ps.dpRun = dpv
		ps.usedView = name
		vsp.SetStr("view", name)
		for _, sl := range ps.missing {
			st := rewrite.RollupState(sl.st, rollup.StateCol[sl.st.Key()])
			sl.taskIdx = addStateTask(ps.reg, st, sl.st.Key())
		}
		ps.missing = nil
	}
	vsp.End()
	return nil
}

// ---- fuse phase ----

// ruleRegisterTasks registers one deduplicated scan task per missing
// state — the fusion step: every remaining consumer shares the single
// scan these tasks ride on — plus the §5.3 sign-split companion states
// needed to keep future sharing sound over signed data.
func ruleRegisterTasks(_ context.Context, ps *planState) error {
	for _, sl := range ps.missing {
		sl.taskIdx = addStateTask(ps.reg, sl.st, sl.st.Key())
		if ps.mode == ModeShare && !sl.positive && needsSignSplit(sl.st) {
			lnAbs, sgnProd := cache.SignSplitStates(sl.st.Base)
			for _, comp := range []canonical.State{lnAbs, sgnProd} {
				cs := &slot{st: comp, positive: false}
				cs.taskIdx = addStateTask(ps.reg, comp, comp.Key())
				ps.companions = append(ps.companions, cs)
			}
		}
	}
	return nil
}

// ---- parallelize phase ----

// ruleElideScan skips execution entirely when the cache served every
// state and the cached entry supplies the group structure.
func ruleElideScan(_ context.Context, ps *planState) error {
	if ps.reg.Len() == 0 && ps.mode == ModeShare && ps.entryOK {
		ps.fullHit = true
	}
	return nil
}

// ruleFusedScan (batch replay only) asks the batch's scan provider for
// the query's group result: when the batch pre-computed a fused scan
// covering every registered task, the query consumes it instead of
// scanning. A provider that cannot serve (fingerprint unknown, task
// missing, view rewrite redirected the plan) leaves ps.gr nil and the
// query falls back to its own scan.
func ruleFusedScan(_ context.Context, ps *planState) error {
	if ps.fullHit || ps.qc.provide == nil || ps.reg.Len() == 0 {
		return nil
	}
	if gr, ok := ps.qc.provide(ps.dpRun, ps.reg); ok {
		ps.gr = gr
	}
	return nil
}

// ---- execution (after the pipeline) ----

// executePlan runs the analyzed plan: execute the fused scan (or adopt
// the provided one, or elide it on a full cache hit), assemble the value
// matrix from task outputs and cached arrays, store freshly computed
// states, and build the output table.
func (s *Session) executePlan(ctx context.Context, ps *planState) (*Result, error) {
	qc := ps.qc
	var gr *exec.GroupResult
	switch {
	case ps.fullHit:
		gr = &exec.GroupResult{
			NumGroups:  ps.entry.NumGroups(),
			Keys:       ps.entry.Keys,
			KeyNames:   ps.entry.KeyNames,
			KeyColumns: ps.entry.KeyCols,
			Rows:       0,
		}
	case ps.gr != nil:
		gr = ps.gr
		qc.noteKernels(gr)
	default:
		ssp := qc.sp.Child("scan/agg")
		if ps.mode != ModeBaseline {
			ssp.SetInt("tasks", int64(ps.reg.Len()))
		}
		var err error
		gr, err = s.eng.RunSpecs(ctx, ps.dpRun, ps.reg)
		if err != nil {
			return nil, err
		}
		noteScanAgg(ssp, gr)
		ssp.End()
		qc.noteKernels(gr)
	}

	// Assemble the value matrix: task outputs first, then cached arrays
	// aligned to the result's group order.
	for _, key := range ps.slotOrder {
		sl := ps.slots[key]
		if sl.cached == nil {
			sl.finalIdx = sl.taskIdx
			continue
		}
		aligned := sl.cached
		if !ps.fullHit {
			var ok bool
			aligned, ok = alignEntryToResult(ps.entry, gr, sl.cached)
			if !ok {
				return nil, fmt.Errorf("cache entry misaligned with result groups for state %s", key)
			}
		}
		sl.finalIdx = len(gr.Values)
		gr.Values = append(gr.Values, aligned)
	}

	// Cache the freshly computed states (and companions). Guarded: a
	// failed insert costs future sharing, not this query.
	if ps.mode == ModeShare && !ps.fullHit {
		stsp := qc.sp.Child("cache-store")
		stored := 0
		ps.guard("state insert", func() {
			gt := cache.NewGroupTable(ps.dp.Fingerprint, gr.KeyNames, gr.Keys, gr.KeyColumns)
			// Attach the maintenance record: the statement's data part
			// plus the pinned table versions it ran against. The append
			// path uses it to delta-fold future batches into this entry
			// instead of invalidating it.
			gt.Maint = newMaintRec(ps.stmt, ps.dp)
			for _, key := range ps.slotOrder {
				sl := ps.slots[key]
				if sl.taskIdx >= 0 {
					_ = gt.AddState(&cache.CachedState{
						State:         sl.st,
						Vals:          gr.Values[sl.taskIdx],
						PositiveInput: sl.positive,
					})
				}
			}
			for _, cs := range ps.companions {
				_ = gt.AddState(&cache.CachedState{State: cs.st, Vals: gr.Values[cs.taskIdx]})
			}
			// Count before Put: the cache owns gt afterwards, and a
			// concurrent query's Put may merge new states into it under
			// the cache lock while we'd be reading it unlocked.
			if n := gt.NumStates(); n > 0 {
				qc.cache.Put(gt)
				stored = n
			}
		})
		stsp.SetInt("states", int64(stored))
		stsp.End()
	}

	fsp := qc.sp.Child("finisher")
	out, err := exec.BuildOutput(ctx, ps.stmt, ps.dpRun, gr, ps.spec)
	if err != nil {
		return nil, err
	}
	fsp.SetInt("groups", int64(out.Groups))
	fsp.End()
	if ps.mode == ModeShare {
		ps.events = append(ps.events, qc.cache.DrainEvents()...)
	}
	res := &Result{
		Table:         out.Table,
		RowsScanned:   gr.Rows,
		Groups:        out.Groups,
		UsedView:      ps.usedView,
		FullCacheHit:  ps.fullHit,
		NumericFaults: out.NumericFaults,
		Events:        ps.events,
		Stats:         qc.stats,
	}
	noteNumericFaults(res)
	return res, nil
}
