package main

// The harness drives the program the way a user does: an in-process
// server.Server on a loopback port, reached through the bundled client.
// It records every operation's latency and outcome, and counts the bytes
// the client sends and receives.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sudaf"
	"sudaf/internal/server"
	"sudaf/internal/server/client"
)

// env is one running serving stack: the engine restored from the data
// directory, the server in front of it, one client per session, and in
// ingest the in-process subscription.
type env struct {
	eng     *sudaf.Engine
	srv     *server.Server
	clients []*client.Client
	hc      *http.Client
	bytes   *countingTransport // nil unless bytes are counted
	sub     *sudaf.Subscription
	subSeq  int64 // the last emission Seq received
	subLast int   // the last base row the emissions covered

	restore  time.Duration // sudaf.Open from the data directory
	snapshot time.Duration // Subscribe until the snapshot emission
	setup    time.Duration // Open until the stack is ready
}

// openEnv restores the engine from dir and brings the stack up. With
// traceEngine set the engine records a span tree for every query; with
// count set the client transport counts bytes.
func openEnv(ctx context.Context, dir string, w *workload, traceEngine, count bool, ref *reference) (*env, error) {
	start := time.Now()
	opts := sudaf.Options{Workers: engineWorkers, DataDir: dir}
	if traceEngine {
		opts.TraceRate = 1
	}
	e := &env{eng: sudaf.Open(opts)}
	e.restore = time.Since(start)
	if err := e.eng.LoadError(); err != nil {
		e.close()
		return nil, fmt.Errorf("restore: %w", err)
	}
	srv, err := server.New(server.Config{Session: e.eng.Session()})
	if err != nil {
		e.close()
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	e.srv = srv
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = w.sessions
	var rt http.RoundTripper = tr
	if count {
		e.bytes = &countingTransport{base: tr}
		rt = e.bytes
	}
	e.hc = &http.Client{Transport: rt}
	for i := 0; i < w.sessions; i++ {
		c := client.New(srv.Addr(), client.Options{HTTPClient: e.hc, Retries: -1})
		if err := c.OpenSession(ctx); err != nil {
			e.close()
			return nil, fmt.Errorf("open session: %w", err)
		}
		e.clients = append(e.clients, c)
	}
	if w.subscribe {
		t0 := time.Now()
		sub, err := e.eng.Subscribe(ctx, windowSQL, sudaf.Share)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		e.sub = sub
		snap, err := e.nextEmission(ctx)
		if err != nil {
			e.close()
			return nil, err
		}
		e.snapshot = time.Since(t0)
		e.setup = time.Since(start)
		if err := e.checkEmission(snap, 0, len(ref.traffic)-1, ref, 0); err != nil {
			e.close()
			return nil, fmt.Errorf("snapshot emission: %w", err)
		}
		return e, nil
	}
	e.setup = time.Since(start)
	return e, nil
}

// nextEmission waits for the subscription's next emission.
func (e *env) nextEmission(ctx context.Context) (*sudaf.WindowResult, error) {
	select {
	case r, ok := <-e.sub.Results():
		if !ok {
			return nil, fmt.Errorf("subscription ended: %v", e.sub.Err())
		}
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// checkEmission checks that an emission is the next one in sequence,
// covers exactly the base rows [lo, hi], and that sampled frames match a
// direct recomputation. seed picks the sampled frames.
func (e *env) checkEmission(r *sudaf.WindowResult, lo, hi int, ref *reference, seed int64) error {
	if r.Seq != e.subSeq+1 || r.FirstRow != lo || r.LastRow != hi {
		return fmt.Errorf("emission seq %d rows [%d, %d], want seq %d rows [%d, %d]",
			r.Seq, r.FirstRow, r.LastRow, e.subSeq+1, lo, hi)
	}
	e.subSeq, e.subLast = r.Seq, hi
	t := r.Table
	if t.NumRows() != hi-lo+1 || len(t.Cols) != len(windowAggs) {
		return fmt.Errorf("emission has %d rows × %d columns, want %d × %d",
			t.NumRows(), len(t.Cols), hi-lo+1, len(windowAggs))
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < framesChecked; k++ {
		i := rng.Intn(t.NumRows())
		if k == 0 {
			i = t.NumRows() - 1
		}
		var got [5]float64
		for j, c := range t.Cols {
			got[j] = c.AsFloat(i)
		}
		end := lo + i
		if err := frameCheck(ref.traffic, max(0, end-windowRows+1), end, got); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.sub != nil {
		e.sub.Close()
	}
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx) // the engine is closed next either way
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	_ = e.eng.Close(ctx) // nothing is in flight once the server drained
}

// countingTransport counts the bytes of /v1/query responses and of
// /v1/append request bodies.
type countingTransport struct {
	base       http.RoundTripper
	queryRecv  atomic.Int64
	appendSent atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/append" {
		t.appendSent.Add(r.ContentLength)
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/query" {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.queryRecv}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// recorder collects one timed phase's operations. Sessions record
// concurrently.
type recorder struct {
	mu sync.Mutex
	// Latencies in milliseconds.
	query, append, emit, overhead, wall []float64
	attempted, failed                   int
	faults                              map[string]int
	wrong                               []string
	// From end frames and append responses.
	rowsScanned                 int64
	exactHits, sharedHits, miss int64
	signHits                    int64
	evictions                   int64
	appendRows                  int64
	migrated, maintained        int64
	invalidated                 int64
	passes                      []passTime
	spans                       *spanLog
}

// passTime is one session's pass (one step in ingest): its operations
// and how long they took.
type passTime struct {
	ops int
	dur time.Duration
}

// opsRate is the throughput of the median pass: sessions running
// concurrently each complete a pass in about the median time, so the
// stack completes sessions × ops-per-pass in that time. A median over
// passes keeps a burst of machine noise in one pass from moving it.
func (r *recorder) opsRate(sessions int) float64 {
	if len(r.passes) == 0 {
		return 0
	}
	secs := make([]float64, len(r.passes))
	for i, p := range r.passes {
		secs[i] = p.dur.Seconds() / float64(p.ops)
	}
	return float64(sessions) / quantile(secs, 0.5)
}

func newRecorder(spans *spanLog) *recorder {
	return &recorder{faults: map[string]int{}, spans: spans}
}

// outcome records one operation's result. err is the operation's error
// or the reason its answer is wrong; fault is the operation's known-fault
// label.
func (r *recorder) outcome(what, fault string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if fault != "" {
		r.faults[fault]++
		return
	}
	if len(r.wrong) < 10 {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %v", what, err))
	}
}

// runQuery sends one query through c, checks the answer and records it.
func runQuery(ctx context.Context, c *client.Client, s stmt, ref *reference, rec *recorder) {
	start := time.Now()
	res, err := c.Query(ctx, s.sql, s.mode)
	lat := time.Since(start)
	if err == nil {
		err = ref.check(s, res)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans.add("client.query", start, lat, s.mode+" m"+fmt.Sprint(s.model)+" "+s.agg)
	rec.query = append(rec.query, ms(lat))
	if res != nil && res.End != nil && res.End.Stats != nil {
		st := res.End.Stats
		rec.overhead = append(rec.overhead, ms(lat)-float64(st.WallMicros)/1e3)
		rec.wall = append(rec.wall, float64(st.WallMicros)/1e3)
		rec.rowsScanned += int64(st.RowsScanned)
		rec.exactHits += int64(st.CacheExactHits)
		rec.sharedHits += int64(st.CacheSharedHits)
		rec.signHits += int64(st.CacheSignHits)
		rec.miss += int64(st.CacheMisses)
	}
	rec.outcome(s.sql, s.fault, err)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). The steadiness command uses
// quartiles instead, which follows Python's definition.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spanLog keeps the benchmark's spans in memory; it is written out as
// JSON when a traced run ends. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. Parent indexes the enclosing span
// in the same log (-1 for none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Detail  string `json:"detail,omitempty"`
}

func (l *spanLog) add(name string, start time.Time, d time.Duration, detail string) int {
	return l.addChild(-1, name, start, d, detail)
}

func (l *spanLog) addChild(parent int, name string, start time.Time, d time.Duration, detail string) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(l.t0).Microseconds(), DurUS: d.Microseconds(), Detail: detail})
	return id
}
