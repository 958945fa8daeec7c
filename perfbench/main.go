// Command perfbench is the SUDAF serving-path benchmark. It generates
// its inputs from a seed, stores them in a data directory, restores a
// server from it, drives named workloads through the bundled client,
// checks every answer against an independent reference, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload scan --seed 1 --seconds 10 --trace 0
//	perfbench steady --workload scan --runs 10
//
// See README.md for the workloads, metrics and known faults.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sudaf"
)

// buildDir is where runs keep their data directories and trace files,
// relative to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"server.overhead_p50_ms", "ms"},
	{"server.resp_bytes_per_query", "B"},
	{"server.append_bytes_per_row", "B"},
	{"sqlparse.parse_us", "us"},
	{"core.plan_us", "us"},
	{"core.canonicalize_us", "us"},
	{"core.lookup_us", "us"},
	{"core.finisher_ms", "ms"},
	{"core.engine_wall_p50_ms", "ms"},
	{"cache.exact_hits", "count"},
	{"cache.shared_hits", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"},
	{"exec.rows_scanned", "count"},
	{"exec.scan_ms", "ms"},
	{"exec.rows_per_s", "1/s"},
	{"storage.restore_s", "s"},
	{"storage.save_s", "s"},
	{"ingest.entries_migrated", "count"},
	{"ingest.states_maintained", "count"},
	{"ingest.entries_invalidated", "count"},
	{"ingest.rows_scanned_per_query", "count"},
	{"ingest.append_p50_ms", "ms"},
	{"window.fast_folds", "count"},
	{"window.refolds", "count"},
	{"window.fast_ratio", "ratio"},
	{"window.snapshot_s", "s"},
	{"window.emit_p50_ms", "ms"},
	{"sketch.quantile_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints; only the exported fields go into the
// JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	defs   []metricDef
	faults map[string]int
	wrong  []string
}

func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("metric not declared: " + name)
}

// add counts a phase's operations into the result.
func (r *result) add(rec *recorder) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	for k, v := range rec.faults {
		r.faults[k] += v
	}
	r.wrong = append(r.wrong, rec.wrong...)
	r.Correct = r.Correct && len(r.wrong) == 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: scan, share, ingest or serve")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs traced, prints the per-layer metrics and writes the spans to "+
		buildDir+"/trace-<workload>-<seed>.json; 0 prints the end-to-end metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload scan|share|ingest|serve, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	out := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	// Every run must end within three minutes, set-up included.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := runBenchmark(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.summary(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runBenchmark makes the inputs, writes the data directory, and runs the
// timed phase (two phases when traced).
func runBenchmark(ctx context.Context, w *workload, seed int64, d time.Duration, traced bool, traceOut string) (*result, error) {
	work := filepath.Join(buildDir, "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	in := makeInputs(seed)
	save, err := prepare(ctx, work, in, w)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	in.tables = nil // the data directory holds them now
	res := &result{Correct: true, Metrics: map[string]metric{}, faults: map[string]int{}}
	if !traced {
		res.defs = endToEnd
		p, err := measure(ctx, w, work, in, d, false, false, nil, w.setups)
		if err != nil {
			return nil, err
		}
		defer p.env.close()
		res.add(p.rec)
		res.set("setup_s", quantile(p.setups, 0.5))
		res.set("ops_s", p.opsRate())
		res.set("query_p50_ms", quantile(p.rec.query, 0.5))
		res.set("query_p90_ms", quantile(p.rec.query, 0.9))
		res.set("heap_mb", p.heapMB)
		return res, res.complete()
	}
	res.defs = perLayer
	res.set("storage.save_s", save.Seconds())
	// Phase A: the engine untraced, the transport counting bytes. Every
	// counter-based layer metric comes from it.
	a, err := measure(ctx, w, work, in, d/2, false, true, nil, w.setups)
	if err != nil {
		return nil, err
	}
	res.add(a.rec)
	res.setLayers(w, a)
	a.env.close()
	// Phase B: the engine traces every query. Its throughput against
	// phase A's is the tracing overhead; the probe then replays one pass
	// in process to split the engine's time by span.
	spans := &spanLog{t0: time.Now()}
	b, err := measure(ctx, w, work, in, d/2, true, true, spans, 1)
	if err != nil {
		return nil, err
	}
	defer b.env.close()
	res.add(b.rec)
	res.set("trace.overhead_pct", (a.opsRate()/b.opsRate()-1)*100)
	if err := probe(ctx, res, w, b.env, in, spans); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := spans.write(traceOut, w.name, seed); err != nil {
		return nil, err
	}
	return res, res.complete()
}

// complete fails when a declared metric was not measured.
func (r *result) complete() error {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

// summary prints the operation counts, labelled faults and metrics.
func (r *result) summary(w io.Writer) {
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	labels := make([]string, 0, len(r.faults))
	for k := range r.faults {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	for _, k := range labels {
		fmt.Fprintf(w, "  known fault %s: %d\n", k, r.faults[k])
	}
	for _, s := range r.wrong {
		fmt.Fprintf(w, "  WRONG %s\n", s)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// prepare registers the tables in a fresh engine over dir, runs one warm
// pass of the workload in Share mode, and saves tables and cache there.
// It returns how long Save took.
func prepare(ctx context.Context, dir string, in *inputs, w *workload) (time.Duration, error) {
	eng := sudaf.Open(sudaf.Options{Workers: engineWorkers, DataDir: dir})
	defer eng.Close(ctx)
	for _, t := range in.tables {
		if err := eng.Register(t); err != nil {
			return 0, fmt.Errorf("register %s: %w", t.Name, err)
		}
	}
	for _, pass := range w.passes(in.seed) {
		for _, s := range pass {
			if _, err := eng.QueryContext(ctx, s.sql, sudaf.Share); err != nil {
				return 0, fmt.Errorf("warm %q: %w", s.sql, err)
			}
		}
	}
	start := time.Now()
	if err := eng.Save(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// phase is one timed phase: the stack it ran on (left open) and what it
// recorded.
type phase struct {
	env      *env
	rec      *recorder
	sessions int
	// Per set-up, in seconds.
	setups, restores, snapshots []float64
	// heapMB is the live heap set-up added, in MB.
	heapMB float64
	// Counters read before and after the timed loop.
	mem0, mem1       runtime.MemStats
	cache0, cache1   sudaf.CacheStats
	window0, window1 map[string]float64
}

func (p *phase) opsRate() float64 { return p.rec.opsRate(p.sessions) }

// measure sets the stack up setups times (keeping the last), then runs
// the workload for d, finishing the pass in progress.
func measure(ctx context.Context, w *workload, dir string, in *inputs, d time.Duration,
	traceEngine, count bool, spans *spanLog, setups int) (*phase, error) {
	ref := in.ref
	if w.subscribe {
		ref = ref.clone() // ingest grows it
	}
	p := &phase{sessions: w.sessions}
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	for i := 0; i < setups; i++ {
		if p.env != nil {
			p.env.close()
		}
		e, err := openEnv(ctx, dir, w, traceEngine, count, ref)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.env = e
		p.setups = append(p.setups, e.setup.Seconds())
		p.restores = append(p.restores, e.restore.Seconds())
		p.snapshots = append(p.snapshots, e.snapshot.Seconds())
	}
	p.rec = newRecorder(spans)
	// heapMB is what set-up added to the live heap: the serving stack
	// without the benchmark's own reference data. It is read before the
	// timed loop because ingest grows its table by however many batches
	// the run's speed allows.
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.heapMB = (float64(p.mem0.HeapAlloc) - float64(base.HeapAlloc)) / 1e6
	p.cache0 = p.env.eng.CacheStats()
	p.window0 = windowCounters(p.env.eng)
	start := time.Now()
	err := w.run(ctx, p.env, in.seed, ref, start.Add(d), p.rec)
	runtime.ReadMemStats(&p.mem1)
	p.cache1 = p.env.eng.CacheStats()
	p.window1 = windowCounters(p.env.eng)
	if err != nil {
		p.env.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return p, nil
}
