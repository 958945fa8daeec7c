package main

// Per-layer measurement for traced runs. Every figure is taken from
// outside the program: counters it already records (end-frame stats,
// append responses, cache and window counters), the span trees it
// builds under Options.TraceRate, and the benchmark's own timing of
// calls into layer packages.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sudaf"
	"sudaf/internal/sketch"
	"sudaf/internal/sqlparse"
)

// windowFamilies are the sudaf_window_* counters the per-layer metrics
// read.
var windowFamilies = []string{"sudaf_window_fast_folds_total", "sudaf_window_refolds_total"}

// windowCounters reads the window families from the engine's metrics
// registry, in its Prometheus text form.
func windowCounters(eng *sudaf.Engine) map[string]float64 {
	var buf bytes.Buffer
	eng.Metrics().WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, f := range windowFamilies {
			if name == f {
				out[f], _ = strconv.ParseFloat(val, 64) // a bad sample reads 0
			}
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayers sets the counter-based per-layer metrics from an untraced
// phase. Counts are per pass (per append step in ingest).
func (r *result) setLayers(w *workload, p *phase) {
	rec := p.rec
	passes := float64(len(rec.passes))
	queries := float64(len(rec.query))
	appends := float64(len(rec.append))
	r.set("server.overhead_p50_ms", quantile(rec.overhead, 0.5))
	r.set("server.resp_bytes_per_query", ratio(float64(p.env.bytes.queryRecv.Load()), queries))
	r.set("server.append_bytes_per_row", ratio(float64(p.env.bytes.appendSent.Load()), float64(rec.appendRows)))
	r.set("core.engine_wall_p50_ms", quantile(rec.wall, 0.5))

	hits := float64(rec.exactHits + rec.sharedHits + rec.signHits)
	r.set("cache.exact_hits", ratio(float64(rec.exactHits), passes))
	r.set("cache.shared_hits", ratio(float64(rec.sharedHits), passes))
	r.set("cache.misses", ratio(float64(rec.miss), passes))
	evictions := rec.evictions
	if !w.clearEachPass {
		evictions = p.cache1.Evictions - p.cache0.Evictions
	}
	r.set("cache.evictions", ratio(float64(evictions), passes))
	r.set("cache.hit_ratio", ratio(hits, hits+float64(rec.miss)))
	r.set("exec.rows_scanned", ratio(float64(rec.rowsScanned), passes))

	r.set("ingest.entries_migrated", ratio(float64(rec.migrated), appends))
	r.set("ingest.states_maintained", ratio(float64(rec.maintained), appends))
	r.set("ingest.entries_invalidated", ratio(float64(rec.invalidated), appends))
	perQuery := 0.0
	if w.subscribe {
		perQuery = ratio(float64(rec.rowsScanned), queries)
	}
	r.set("ingest.rows_scanned_per_query", perQuery)
	r.set("ingest.append_p50_ms", quantile(rec.append, 0.5))

	fast := p.window1[windowFamilies[0]] - p.window0[windowFamilies[0]]
	refolds := p.window1[windowFamilies[1]] - p.window0[windowFamilies[1]]
	r.set("window.fast_folds", ratio(fast, appends))
	r.set("window.refolds", ratio(refolds, appends))
	r.set("window.fast_ratio", ratio(fast, fast+refolds))
	r.set("window.snapshot_s", quantile(p.snapshots, 0.5))
	r.set("window.emit_p50_ms", quantile(rec.emit, 0.5))
	r.set("storage.restore_s", quantile(p.restores, 0.5))

	ops := float64(rec.attempted)
	r.set("runtime.allocs_per_op", ratio(float64(p.mem1.Mallocs-p.mem0.Mallocs), ops))
	r.set("runtime.alloc_kb_per_op", ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/1024, ops))
	r.set("runtime.gc_cycles", float64(p.mem1.NumGC-p.mem0.NumGC))
	r.set("runtime.gc_pause_ms", float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6)
}

// probe replays the first session's pass in process on the traced
// engine and splits its time by the engine's spans, then times the
// parser on every statement and the sketch finisher on the reference
// moments.
func probe(ctx context.Context, r *result, w *workload, e *env, in *inputs, spans *spanLog) error {
	pass := w.passes(in.seed)[0]
	if w.clearEachPass {
		e.eng.ClearCache()
	}
	self := map[string]float64{} // span name → summed self time, ns
	var scanned float64
	for _, s := range pass {
		mode := sudaf.Share
		if s.mode == "rewrite" {
			mode = sudaf.Rewrite
		}
		start := time.Now()
		res, err := e.eng.QueryContext(ctx, s.sql, mode)
		if err != nil {
			return fmt.Errorf("%q: %w", s.sql, err)
		}
		id := spans.add("core.query", start, time.Since(start), s.sql)
		if res.Trace == nil {
			return fmt.Errorf("%q: no trace under TraceRate 1", s.sql)
		}
		spans.addEngine(id, start, res.Trace.Root(), self)
		scanned += float64(res.RowsScanned)
	}
	n := float64(len(pass))
	r.set("core.plan_us", self["plan"]/n/1e3)
	r.set("core.canonicalize_us", self["canonicalize"]/n/1e3)
	r.set("core.lookup_us", self["sharing-lookup"]/n/1e3)
	r.set("core.finisher_ms", self["finisher"]/n/1e6)
	r.set("exec.scan_ms", self["scan/agg"]/n/1e6)
	r.set("exec.rows_per_s", ratio(scanned, self["scan/agg"]/1e9))

	const reps = 20
	start := time.Now()
	for _, s := range pass {
		for i := 0; i < reps; i++ {
			if _, err := sqlparse.Parse(s.sql); err != nil {
				return fmt.Errorf("parse %q: %w", s.sql, err)
			}
		}
	}
	d := time.Since(start)
	spans.add("sqlparse.parse", start, d, fmt.Sprintf("%d statements × %d", len(pass), reps))
	r.set("sqlparse.parse_us", float64(d.Microseconds())/float64(reps*len(pass)))

	// The sketch finisher on query model 1's exact power moments.
	all := in.ref.model1[0].cols[0]
	k := sketch.DefaultK
	sums := make([]ksum, k+1)
	for _, x := range all.vals {
		p := 1.0
		for i := 1; i <= k; i++ {
			p *= x
			sums[i].add(p)
		}
	}
	m := make([]float64, k+1)
	m[0] = 1
	for i := 1; i <= k; i++ {
		m[i] = sums[i].value() / float64(all.n)
	}
	var us []float64
	for i := 0; i < 10; i++ {
		for q := range quantileOf {
			t0 := time.Now()
			sketch.Quantile(all.min, all.max, m, quantileOf[q])
			dq := time.Since(t0)
			spans.add("sketch.quantile", t0, dq, q)
			us = append(us, float64(dq.Nanoseconds())/1e3)
		}
	}
	r.set("sketch.quantile_us", quantile(us, 0.5))
	return nil
}

// addEngine copies an engine span tree into the log under parent and
// sums each span's self time (its duration less its children's) by name.
func (l *spanLog) addEngine(parent int, t0 time.Time, sp *sudaf.Span, self map[string]float64) {
	var children int64
	for _, c := range sp.Children {
		children += c.DurNS
	}
	self[sp.Name] += float64(max(0, sp.DurNS-children))
	id := l.addChild(parent, "engine."+sp.Name, t0.Add(time.Duration(sp.StartNS)), time.Duration(sp.DurNS), "")
	for _, c := range sp.Children {
		l.addEngine(id, t0, c, self)
	}
}

// write stores the log as JSON.
func (l *spanLog) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
