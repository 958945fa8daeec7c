package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sudaf/internal/server"
	"sudaf/internal/server/client"
)

// workload is one traffic mix. Every run attempts whole passes of the
// same operations, so the share of known-fault failures is fixed.
type workload struct {
	name string
	// sessions is the number of client sessions, each running its own
	// pass concurrently (closed loop).
	sessions int
	// setups is how many times a run sets the stack up; setup_s is the
	// median.
	setups int
	// clearEachPass empties the state cache at the start of every pass.
	clearEachPass bool
	// subscribe opens the sliding-window subscription in set-up and
	// makes each step an append followed by the query pass (ingest).
	subscribe bool
	// passes returns each session's pass, in order.
	passes func(seed int64) [][]stmt
}

// minPasses is the fewest passes each session makes, however long they
// take. A share pass runs about five seconds; two give it 192 query
// latencies, enough for a 90th percentile.
const minPasses = 2

var workloads = []*workload{
	{name: "scan", sessions: 1, setups: 9, passes: scanPasses},
	{name: "share", sessions: 1, setups: 9, clearEachPass: true, passes: sharePasses},
	{name: "ingest", sessions: 1, setups: 3, subscribe: true, passes: ingestPasses},
	{name: "serve", sessions: 2, setups: 9, passes: servePasses},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scanPasses: AS1 then AS2 over query models 1, 2 and 3 in Rewrite mode.
func scanPasses(int64) [][]stmt {
	var pass []stmt
	for m := 1; m <= 3; m++ {
		for _, seq := range [][]string{as1, as2} {
			for _, agg := range seq {
				pass = append(pass, newStmt(m, agg, "rewrite"))
			}
		}
	}
	return [][]stmt{pass}
}

// shareOrderSeed draws the share workload's query order. It is fixed,
// not taken from --seed: which queries miss, and how many scans a pass
// runs, depends on the order, and runs on different seeds must replay
// the same mix to be comparable. --seed varies the data.
const shareOrderSeed = 20200330

// sharePasses: every Figure 10 aggregate over every query model, twice,
// in a random order drawn from shareOrderSeed, in Share mode. The second
// occurrence of each query is an exact hit; gm and the sketch quantiles
// share states through Theorem 4.1 whichever comes first.
func sharePasses(int64) [][]stmt {
	var pass []stmt
	for rep := 0; rep < 2; rep++ {
		for m := 1; m <= 3; m++ {
			for _, agg := range fig10Aggs {
				pass = append(pass, newStmt(m, agg, "share"))
			}
		}
	}
	rng := rand.New(rand.NewSource(shareOrderSeed))
	rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return [][]stmt{pass}
}

// ingestPasses: the eight-aggregate query-model-2 mix run after every
// append.
func ingestPasses(int64) [][]stmt {
	var pass []stmt
	for _, agg := range ingestAggs {
		pass = append(pass, newStmt(2, agg, "share"))
	}
	return [][]stmt{pass}
}

// servePasses: two sessions, one running the AS1 order and one the AS2
// order, each aggregate over query model 1 twice and query model 3 once,
// all answered from the restored cache. A model-3 hit costs about ten
// times a model-1 hit; with the two in equal numbers the median latency
// would fall in the gap between them and jump from run to run.
func servePasses(int64) [][]stmt {
	var out [][]stmt
	for _, seq := range [][]string{as1, as2} {
		var pass []stmt
		for _, agg := range seq {
			pass = append(pass, newStmt(1, agg, "share"), newStmt(3, agg, "share"), newStmt(1, agg, "share"))
		}
		out = append(out, pass)
	}
	return out
}

// run drives the workload against e until deadline, finishing the pass
// (or ingest step) in progress.
func (w *workload) run(ctx context.Context, e *env, seed int64, ref *reference, deadline time.Time, rec *recorder) error {
	passes := w.passes(seed)
	if w.subscribe {
		return w.runIngest(ctx, e, seed, passes[0], ref, deadline, rec)
	}
	var wg sync.WaitGroup
	for i, pass := range passes {
		wg.Add(1)
		go func(c *client.Client, pass []stmt) {
			defer wg.Done()
			for n := 1; ctx.Err() == nil; n++ {
				start := time.Now()
				if w.clearEachPass {
					e.eng.ClearCache()
				}
				for _, s := range pass {
					runQuery(ctx, c, s, ref, rec)
				}
				rec.mu.Lock()
				rec.passes = append(rec.passes, passTime{ops: len(pass), dur: time.Since(start)})
				if w.clearEachPass {
					rec.evictions += e.eng.CacheStats().Evictions
				}
				rec.mu.Unlock()
				if n >= minPasses && !time.Now().Before(deadline) {
					return
				}
			}
		}(e.clients[i], pass)
	}
	wg.Wait()
	return ctx.Err()
}

// runIngest repeats steps until deadline: append one batch over the
// wire, wait for the subscription emission covering it, then run the
// query pass, which the ⊕-maintained cache entries answer.
func (w *workload) runIngest(ctx context.Context, e *env, seed int64, pass []stmt, ref *reference, deadline time.Time, rec *recorder) error {
	c := e.clients[0]
	for step := 0; ctx.Err() == nil; step++ {
		squares, traffic := batch(seed, step)
		cols := []server.ColumnData{
			{Name: "square_id", Kind: "int", Ints: squares},
			{Name: "internet_traffic", Kind: "float", Floats: traffic},
		}
		start := time.Now()
		resp, err := c.Append(ctx, "milan_data", cols)
		appendLat := time.Since(start)
		if err != nil {
			// The engine's state is unknown from here on.
			return fmt.Errorf("append %d: %w", step, err)
		}
		ref.append(squares, traffic)
		lo := e.subLast + 1
		em, err := e.nextEmission(ctx)
		if err != nil {
			return fmt.Errorf("emission %d: %w", step, err)
		}
		emitLat := time.Since(start)
		if resp.RowsAppended != batchRows {
			err = fmt.Errorf("appended %d rows, sent %d", resp.RowsAppended, batchRows)
		} else {
			err = e.checkEmission(em, lo, lo+batchRows-1, ref, seed+int64(step))
		}
		rec.mu.Lock()
		id := rec.spans.add("client.append", start, appendLat, "")
		rec.spans.addChild(id, "window.emission", start, emitLat, "")
		rec.append = append(rec.append, ms(appendLat))
		rec.emit = append(rec.emit, ms(emitLat))
		rec.appendRows += int64(resp.RowsAppended)
		rec.migrated += int64(resp.EntriesMigrated)
		rec.maintained += int64(resp.StatesMaintained)
		rec.invalidated += int64(resp.EntriesInvalidated)
		rec.outcome(fmt.Sprintf("append %d", step), "", err)
		rec.mu.Unlock()
		for _, s := range pass {
			runQuery(ctx, c, s, ref, rec)
		}
		rec.mu.Lock()
		rec.passes = append(rec.passes, passTime{ops: 1 + len(pass), dur: time.Since(start)})
		rec.mu.Unlock()
		if step+1 >= minPasses && !time.Now().Before(deadline) {
			break
		}
	}
	return ctx.Err()
}
