// Package server is the resilient query-serving layer over a SUDAF
// engine session: an HTTP/JSON front-end with per-client sessions and
// prepared-statement handles, length-framed NDJSON streaming for query
// results, overload shedding, and a graceful drain that hands back to
// the engine's own Close contract.
//
// Resilience model, in one place:
//
//   - Admission: requests take a global slot (Config.MaxInflight);
//     excess requests queue up to Config.QueueDepth and anything beyond
//     that is shed immediately with a typed 429 — shed work has
//     provably not executed, so clients may always retry it.
//   - Sessions additionally bound their own concurrency
//     (Config.SessionConcurrency) without queueing: one chatty client
//     sheds at its own cap instead of starving the rest.
//   - Deadlines: the X-Sudaf-Deadline-Ms request header becomes a
//     context deadline that propagates through admission queueing into
//     the engine's scan/join/accumulate loops.
//   - Drain: Shutdown stops accepting work (typed 503), wakes every
//     queued waiter, finishes all in-flight requests (bounded by the
//     caller's context) and records the drain duration. The engine is
//     NOT closed — it belongs to the caller, and its state cache stays
//     warm for the next front-end.
//   - Chaos: the listener and connections route through the
//     faultinject net.* points, so torn connections, stalled streams
//     and flaky accepts are first-class, deterministic test inputs.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/errs"
	"sudaf/internal/faultinject"
	"sudaf/internal/obs"
)

// Config configures a Server. The zero value of every field picks a
// sane default; only Session is required.
type Config struct {
	// Session is the engine session served. Required.
	Session *core.Session

	// MaxInflight bounds requests executing at once (0 = 16).
	MaxInflight int
	// QueueDepth bounds requests waiting for a slot before the server
	// sheds with 429 (0 = 64).
	QueueDepth int
	// MaxSessions bounds open client sessions (0 = 64).
	MaxSessions int
	// SessionConcurrency bounds one session's concurrent requests;
	// requests over the cap shed immediately (0 = unbounded).
	SessionConcurrency int
	// MaxConns bounds open TCP connections; connections over the cap are
	// refused at accept (0 = unbounded).
	MaxConns int
	// MaxRequestBytes bounds a request body (0 = 8 MiB).
	MaxRequestBytes int64
	// BatchRows is the default rows per streamed batch frame (0 = the
	// engine's batch size).
	BatchRows int

	// Metrics is the registry the server families register into
	// (nil = the session's registry). MetricsLabel distinguishes several
	// servers sharing one registry.
	Metrics      *obs.Registry
	MetricsLabel string
}

// Server is one HTTP serving front-end over an engine session.
type Server struct {
	cfg      Config
	eng      *core.Session
	sessions *sessions
	httpSrv  *http.Server
	ln       net.Listener

	// inflight is the global slot semaphore; queued counts waiters.
	inflight  chan struct{}
	queued    atomic.Int64
	inflightN atomic.Int64

	// Drain state: the RWMutex makes {draining check, reqWG.Add} atomic
	// against Shutdown's flip, mirroring the engine's beginOp/Close pair.
	drainMu    sync.RWMutex
	draining   bool
	drainCh    chan struct{}
	reqWG      sync.WaitGroup
	shutStart  atomic.Int64
	drainNanos atomic.Int64

	// Metrics counters (reader-backed; see metrics.go).
	queryReqs       atomic.Int64
	appendReqs      atomic.Int64
	batchReqs       atomic.Int64
	batchQueries    atomic.Int64
	subscribeReqs   atomic.Int64
	subscribeEmits  atomic.Int64
	subscribeActive atomic.Int64
	shedQueue       atomic.Int64
	shedSession     atomic.Int64
	shedDraining    atomic.Int64
	shedConns       atomic.Int64
	connsOpen       atomic.Int64
}

// New builds a server over cfg.Session. Call Start to begin serving.
func New(cfg Config) (*Server, error) {
	if cfg.Session == nil {
		return nil, fmt.Errorf("server: Config.Session is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = MaxFrameBytes
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Session,
		sessions: newSessions(cfg.MaxSessions, cfg.SessionConcurrency),
		inflight: make(chan struct{}, cfg.MaxInflight),
		drainCh:  make(chan struct{}),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = cfg.Session.Metrics()
	}
	s.registerMetrics(reg, cfg.MetricsLabel)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/session", s.handleSession)
	mux.HandleFunc("/v1/prepare", s.handlePrepare)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/append", s.handleAppend)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.Handle("/metrics", reg.Handler())
	s.httpSrv = &http.Server{Handler: mux}
	return s, nil
}

// Start listens on addr (use "127.0.0.1:0" to pick a free port — the
// bound address is Addr) and serves in a background goroutine until
// Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = &chaosListener{Listener: ln, srv: s}
	go s.httpSrv.Serve(s.ln) //nolint:errcheck // ErrServerClosed on Shutdown
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully drains the server: new requests are rejected with
// a typed 503, queued admission waiters wake and shed, in-flight
// requests (including mid-stream queries) run to completion, and open
// sessions are then closed. Bounded by ctx: on expiry Shutdown returns
// the context error while stragglers keep honoring their own deadlines.
//
// Shutdown is idempotent and does NOT close the engine session — the
// engine outlives its front-ends, keeping the state cache warm.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.drainMu.Lock()
	first := !s.draining
	s.draining = true
	s.drainMu.Unlock()
	if first {
		s.shutStart.Store(time.Now().UnixNano())
		close(s.drainCh)
	}
	// Stop the listener and wait for connections; http.Shutdown returns
	// early with ctx's error if the drain outlives it.
	httpErr := s.httpSrv.Shutdown(ctx)
	// Belt and braces: also wait on our own request tracking, which
	// covers handlers even if their connection was hijacked or torn.
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server shutdown: drain incomplete: %w", ctx.Err())
	}
	if httpErr != nil {
		return fmt.Errorf("server shutdown: %w", httpErr)
	}
	s.drainNanos.CompareAndSwap(0, time.Now().UnixNano()-s.shutStart.Load())
	s.sessions.closeAll()
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// beginReq admits one request under the drain gate; the paired endReq
// must run when the handler returns.
func (s *Server) beginReq() error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.shedDraining.Add(1)
		return fmt.Errorf("%w: server draining", errs.ErrEngineClosed)
	}
	s.reqWG.Add(1)
	return nil
}

func (s *Server) endReq() { s.reqWG.Done() }

// acquireSlot takes a global execution slot, queueing up to QueueDepth
// waiters and shedding beyond that. A waiter resolves deterministically:
// slot, own context, or drain — never a hang.
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.inflight <- struct{}{}:
		s.inflightN.Add(1)
		return nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.shedQueue.Add(1)
		return fmt.Errorf("%w: admission queue full (%d waiting)", errs.ErrOverloaded, n-1)
	}
	defer s.queued.Add(-1)
	select {
	case s.inflight <- struct{}{}:
		s.inflightN.Add(1)
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: while queued for a server slot: %v", errs.ErrCanceled, ctx.Err())
	case <-s.drainCh:
		s.shedDraining.Add(1)
		return fmt.Errorf("%w: server drained while queued", errs.ErrEngineClosed)
	}
}

func (s *Server) releaseSlot() {
	<-s.inflight
	s.inflightN.Add(-1)
}

// requestContext derives the handler context: the client's
// X-Sudaf-Deadline-Ms header, when present, becomes a deadline that
// propagates through queueing into the engine.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if h := r.Header.Get("X-Sudaf-Deadline-Ms"); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms > 0 {
			return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		}
	}
	return context.WithCancel(ctx)
}

// sessionID resolves the request's session id: the X-Sudaf-Session
// header wins over the body field.
func sessionID(r *http.Request, body string) string {
	if h := r.Header.Get("X-Sudaf-Session"); h != "" {
		return h
	}
	return body
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

// writeErrorCode reports a pre-streaming failure: HTTP status from the
// wire code, JSON ErrorBody so typed errors survive the trip.
func writeErrorCode(w http.ResponseWriter, code, msg string) {
	writeJSON(w, HTTPStatusForCode(code), ErrorBody{Code: code, Error: msg})
}

func writeError(w http.ResponseWriter, err error) {
	writeErrorCode(w, CodeForError(err), err.Error())
}

func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		writeErrorCode(w, CodeBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return body, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:       status,
		SessionsOpen: int64(s.sessions.numOpen()),
		Inflight:     s.inflightN.Load(),
		Queued:       s.queued.Load(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if err := s.beginReq(); err != nil {
			writeError(w, err)
			return
		}
		defer s.endReq()
		ss, err := s.sessions.create()
		if err != nil {
			writeErrorCode(w, CodeOverloaded, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: ss.id})
	case http.MethodDelete:
		id := sessionID(r, r.URL.Query().Get("id"))
		if id == "" || !s.sessions.close(id) {
			writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": id})
	default:
		writeErrorCode(w, CodeBadRequest, "use POST to open or DELETE to close")
	}
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, CodeBadRequest, "use POST")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodePrepareRequest(body)
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}
	if err := s.beginReq(); err != nil {
		writeError(w, err)
		return
	}
	defer s.endReq()
	ss, ok := s.sessions.get(sessionID(r, req.Session))
	if !ok {
		writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", sessionID(r, req.Session)))
		return
	}
	mode, _ := ModeFromString(req.Mode)
	handle, err := ss.prepare(req.SQL, mode)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errs.ErrParse, err))
		return
	}
	writeJSON(w, http.StatusOK, PrepareResponse{Handle: handle})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, CodeBadRequest, "use POST")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeQueryRequest(body)
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}

	sql, mode := req.SQL, core.ModeShare
	if req.SQL != "" {
		mode, _ = ModeFromString(req.Mode)
	}
	// Resolve the session (optional for plain SQL, required for
	// prepared handles — those live in a session's namespace).
	var ss *session
	if id := sessionID(r, req.Session); id != "" {
		ss, ok = s.sessions.get(id)
		if !ok {
			writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
	}
	if req.Prepared != "" {
		if ss == nil {
			writeErrorCode(w, CodeBadRequest, "prepared statements require a session")
			return
		}
		p, ok := ss.lookup(req.Prepared)
		if !ok {
			writeErrorCode(w, CodeUnknownPrepared, fmt.Sprintf("no prepared statement %q", req.Prepared))
			return
		}
		sql, mode = p.sql, p.mode
	}

	if err := s.beginReq(); err != nil {
		writeError(w, err)
		return
	}
	defer s.endReq()
	if ss != nil {
		if !ss.acquire() {
			s.shedSession.Add(1)
			writeError(w, fmt.Errorf("%w: session %s at its concurrency cap", errs.ErrOverloaded, ss.id))
			return
		}
		defer ss.release()
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	if err := s.acquireSlot(ctx); err != nil {
		writeError(w, err)
		return
	}
	defer s.releaseSlot()
	s.queryReqs.Add(1)

	cur, err := s.eng.QueryBatches(ctx, sql, mode)
	if err != nil {
		// Nothing streamed yet: report over HTTP status + typed body so
		// the client never confuses an engine error with a torn stream.
		writeError(w, err)
		return
	}
	defer cur.Close()
	if n := req.BatchRows; n > 0 {
		cur = cur.Result().Batches(n)
	} else if s.cfg.BatchRows > 0 {
		cur = cur.Result().Batches(s.cfg.BatchRows)
	}
	s.streamResult(w, cur)
}

// startStream begins an NDJSON response and returns the frame emitter.
// Every frame passes the net.stall fault point first — an injected
// error truncates the stream mid-flight (the client detects the tear
// via length framing), a delay stalls it.
func startStream(w http.ResponseWriter) func(*Frame) bool {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return func(f *Frame) bool {
		if err := hitNet(faultinject.PointNetStall); err != nil {
			return false // torn stream: stop without the end frame
		}
		if err := WriteFrame(w, f); err != nil {
			return false // client went away
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
}

// streamResult writes the framed response: schema, batches, end.
func (s *Server) streamResult(w http.ResponseWriter, cur *core.BatchCursor) {
	emit := startStream(w)
	if !emit(SchemaFrame(cur.Result().Table)) {
		return
	}
	for cur.Next() {
		if !emit(BatchFrame(cur.Batch())) {
			return
		}
	}
	if err := cur.Err(); err != nil {
		emit(ErrorFrame(err))
		return
	}
	emit(EndFrame(cur.Result()))
}

// handleBatch runs one multi-query batch through Engine.QueryBatch: the
// whole batch occupies a single execution slot (its internal fan-out is
// the engine's to schedule), and the response is each query's
// schema/batch/end sub-stream in batch order, every frame tagged with
// its query index. QueryBatch is all-results-or-one-error, so a failed
// batch reports one typed error for the lot — over HTTP status when
// nothing streamed yet, as a single error frame otherwise.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, CodeBadRequest, "use POST")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeBatchRequest(body)
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}
	mode, _ := ModeFromString(req.Mode)
	var ss *session
	if id := sessionID(r, req.Session); id != "" {
		ss, ok = s.sessions.get(id)
		if !ok {
			writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
	}

	if err := s.beginReq(); err != nil {
		writeError(w, err)
		return
	}
	defer s.endReq()
	if ss != nil {
		if !ss.acquire() {
			s.shedSession.Add(1)
			writeError(w, fmt.Errorf("%w: session %s at its concurrency cap", errs.ErrOverloaded, ss.id))
			return
		}
		defer ss.release()
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	if err := s.acquireSlot(ctx); err != nil {
		writeError(w, err)
		return
	}
	defer s.releaseSlot()
	s.batchReqs.Add(1)
	s.batchQueries.Add(int64(len(req.Queries)))

	reqs := make([]core.Request, len(req.Queries))
	for i, q := range req.Queries {
		reqs[i] = core.Request{SQL: q, Mode: mode}
	}
	results, err := s.eng.QueryBatch(ctx, reqs, mode)
	if err != nil {
		writeError(w, err)
		return
	}
	rows := req.BatchRows
	if rows == 0 {
		rows = s.cfg.BatchRows
	}
	emit := startStream(w)
	for qi, res := range results {
		tag := func(f *Frame) *Frame { f.Query = qi; return f }
		if !emit(tag(SchemaFrame(res.Table))) {
			return
		}
		cur := res.Batches(rows)
		for cur.Next() {
			if !emit(tag(BatchFrame(cur.Batch()))) {
				return
			}
		}
		if !emit(tag(EndFrame(res))) {
			return
		}
	}
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, CodeBadRequest, "use POST")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeAppendRequest(body)
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}
	var ss *session
	if id := sessionID(r, req.Session); id != "" {
		ss, ok = s.sessions.get(id)
		if !ok {
			writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
	}
	if err := s.beginReq(); err != nil {
		writeError(w, err)
		return
	}
	defer s.endReq()
	if ss != nil {
		if !ss.acquire() {
			s.shedSession.Add(1)
			writeError(w, fmt.Errorf("%w: session %s at its concurrency cap", errs.ErrOverloaded, ss.id))
			return
		}
		defer ss.release()
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	if err := s.acquireSlot(ctx); err != nil {
		writeError(w, err)
		return
	}
	defer s.releaseSlot()
	s.appendReqs.Add(1)

	delta, err := req.ToTable()
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}
	res, err := s.eng.Append(ctx, req.Table, delta)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Table:              res.Table,
		RowsAppended:       res.RowsAppended,
		OldEpoch:           res.OldEpoch,
		NewEpoch:           res.NewEpoch,
		EntriesMigrated:    res.EntriesMigrated,
		StatesMaintained:   res.StatesMaintained,
		EntriesInvalidated: res.EntriesInvalidated,
		ViewsMaintained:    res.ViewsMaintained,
		ViewsInvalidated:   res.ViewsInvalidated,
		Events:             res.Events,
	})
}
