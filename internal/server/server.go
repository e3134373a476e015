// Package server is dopia-as-a-service: a long-running daemon that
// accepts concurrent kernel-launch traffic over an HTTP/JSON API,
// multiplexes it across the parallel/bytecode execution engines through
// a bounded admission queue and a worker pool, and reports health and
// metrics. It layers on the existing stack without forking it — every
// launch goes through ocl.CommandQueue.EnqueueNDRangeKernel and the
// fail-open interposition ladder, sharing the process-wide memoization
// stack (program dedup, per-kernel compiled artifacts) across tenants
// while keeping per-session buffer state isolated.
//
// Admission control: launches enter a bounded queue; when it is full
// the daemon answers 429 with Retry-After instead of queueing unbounded
// work. Each request carries a deadline (its own or the server
// default), started at admission, wired through the command queue into
// the framework's watchdog machinery — an expired request aborts within
// one work-group quantum. SIGTERM (handled by cmd/dopia-serve) drains:
// admitted work finishes, new work is refused with 503.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"dopia/internal/core"
	"dopia/internal/lru"
	"dopia/internal/ml"
	"dopia/internal/ocl"
	"dopia/internal/sim"
	"dopia/internal/stats"
)

// Config parameterizes a Server.
type Config struct {
	// Machine is the simulated integrated processor (required).
	Machine *sim.Machine
	// Model is the DoP-selection model (nil = ALL baseline).
	Model ml.Model
	// QueueDepth bounds the admission queue (default 256).
	QueueDepth int
	// Workers sizes the launch worker pool (default GOMAXPROCS).
	Workers int
	// DefaultDeadline bounds requests that carry none (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 5m).
	MaxDeadline time.Duration
	// MaxSessions bounds live sessions (default 4096).
	MaxSessions int
	// MaxBufferBytes bounds one buffer allocation (default 256 MiB).
	MaxBufferBytes int64
	// MaxSourceBytes bounds one program source (default 1 MiB).
	MaxSourceBytes int64
	// WatchdogTimeout is passed to the framework (0 = its default).
	WatchdogTimeout time.Duration
	// Online enables the closed-loop learner: each live launch feeds a
	// memo of oracle sweeps that answers the session's (tenant's) next
	// launches of a signature it launched recently, and a tenant's state
	// dies with its session.
	Online bool
}

func (c *Config) fillDefaults() error {
	if c.Machine == nil {
		return fmt.Errorf("server: Config.Machine is required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxBufferBytes <= 0 {
		c.MaxBufferBytes = defaultMaxBufferBytes
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = defaultMaxSourceBytes
	}
	return nil
}

const (
	defaultMaxBufferBytes = 256 << 20
	defaultMaxSourceBytes = 1 << 20
)

// BodyLimits bounds the JSON request bodies of the mutating endpoints a
// router fronts, in bytes. A body past its limit reads as truncated JSON
// and is refused with 400.
type BodyLimits struct {
	Program, Session, Buffer, Launch int64
}

func bodyLimits(maxBufferBytes, maxSourceBytes int64) BodyLimits {
	return BodyLimits{
		Program: maxSourceBytes + 4096,
		Session: 4096,
		// A buffer's bytes travel base64-encoded inside JSON.
		Buffer: maxBufferBytes*2 + 4096,
		Launch: 1 << 20,
	}
}

// DefaultBodyLimits are the limits of a daemon with default buffer and
// source bounds — what a router, which has no Config of a member's to
// read, applies in front of its ring.
func DefaultBodyLimits() BodyLimits {
	return bodyLimits(defaultMaxBufferBytes, defaultMaxSourceBytes)
}

// Server is the dopia-serve daemon core: an http.Handler plus the
// admission queue and worker pool behind it.
type Server struct {
	cfg      Config
	limits   BodyLimits
	fw       *core.Framework
	platform *ocl.Platform
	mux      *http.ServeMux
	start    time.Time

	// queues holds one bounded channel per worker. Launches are pinned
	// to a worker by session-ID hash (session affinity), so one
	// session's launches stay ordered on one goroutine and its
	// compiled-artifact touches stay core-hot; total capacity
	// approximates Config.QueueDepth.
	queues      []chan *launch
	stopWorkers chan struct{}
	workersDone sync.WaitGroup
	// pending counts admitted-but-unfinished launches for graceful drain.
	pending sync.WaitGroup
	// admitMu orders admissions against the draining flag so Shutdown's
	// pending.Wait can never race an in-flight pending.Add.
	admitMu  sync.Mutex
	draining atomic.Bool
	// ready gates /readyz: a node about to drain reports unready so
	// routers move its sessions before it refuses work.
	// Liveness (/healthz) is independent and stays 200 throughout.
	ready    atomic.Bool
	inflight atomic.Int64

	mu          sync.Mutex // guards sessions
	sessions    map[string]*session
	nextSession atomic.Int64
	// programs is the registry of compiled programs by content-addressed
	// ID, least recently launched first out. It is correctness state (a
	// launch names its program by ID), so it is consulted while faults are
	// armed too.
	programs *lru.Cache[string, *program]

	// learner is the framework's online-learning loop (nil unless
	// Config.Online is set); it learns from live launches and answers
	// later ones.
	learner *core.Learner

	met metrics
}

// programRegistryCap bounds the program registry at the same 256 sources
// as the ocl program cache under it (and the router's source registry
// above it), so a registered program pins no more build-time artifacts
// than that cache already allows.
const programRegistryCap = 256

// program is a compiled program shared by all sessions.
type program struct {
	id      string
	prog    *ocl.Program
	kernels []string
}

// metrics aggregates the daemon-level counters and latency histograms.
type metrics struct {
	launchesOK      atomic.Int64
	launchErrors    atomic.Int64
	rejected        atomic.Int64 // 429: queue full or session limit
	deadlineExpired atomic.Int64 // requests dead before or during execution
	badRequests     atomic.Int64
	sessionsCreated atomic.Int64
	sessionsClosed  atomic.Int64
	programBuilds   atomic.Int64
	simTimeNanos    atomic.Int64 // accumulated simulated seconds, in ns
	profilesReused  atomic.Int64 // managed launches whose model came from the kernel's memo

	// Cluster-tier counters: replication/migration traffic and
	// idempotent launch replays served from the per-session cache.
	sessionsExported atomic.Int64
	sessionsImported atomic.Int64
	idemReplays      atomic.Int64
	programEvictions atomic.Int64

	// Wire bytes in/out, both protocols.
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	queueWait *stats.Histogram // admission-queue wait, seconds
	exec      *stats.Histogram // execution (session-lock to response), seconds
	total     *stats.Histogram // admission to completion, seconds
	stages    *stats.StageSet  // decode/queue/exec/encode stage latency
}

// Stage indexes of metrics.stages.
const (
	stageDecode = iota
	stageQueue
	stageExec
	stageEncode
)

// New builds a Server. It does not listen; mount it with Handler (or
// use cmd/dopia-serve).
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	fw := core.New(cfg.Machine, cfg.Model)
	fw.WatchdogTimeout = cfg.WatchdogTimeout
	s := &Server{
		cfg:         cfg,
		limits:      bodyLimits(cfg.MaxBufferBytes, cfg.MaxSourceBytes),
		fw:          fw,
		platform:    ocl.NewPlatform(cfg.Machine),
		start:       time.Now(),
		stopWorkers: make(chan struct{}),
		sessions:    map[string]*session{},
		programs:    lru.New[string, *program](programRegistryCap, nil),
		met: metrics{
			queueWait: stats.NewLatencyHistogram(),
			exec:      stats.NewLatencyHistogram(),
			total:     stats.NewLatencyHistogram(),
			stages:    stats.NewStageSet("decode", "queue", "exec", "encode"),
		},
	}
	if cfg.Online {
		s.learner = core.NewLearner(cfg.Machine)
		fw.Learner = s.learner
	}
	perWorker := (cfg.QueueDepth + cfg.Workers - 1) / cfg.Workers
	s.queues = make([]chan *launch, cfg.Workers)
	for i := range s.queues {
		s.queues[i] = make(chan *launch, perWorker)
	}
	s.ready.Store(true)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/programs", s.handleProgram)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/buffers", s.handleCreateBuffer)
	s.mux.HandleFunc("GET /v1/sessions/{id}/buffers/{name}", s.handleReadBuffer)
	s.mux.HandleFunc("GET /v1/sessions/{id}/export", s.handleExportSession)
	s.mux.HandleFunc("POST /v1/sessions/import", s.handleImportSession)
	s.mux.HandleFunc("POST /v1/launch", s.handleLaunch)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	for i := 0; i < cfg.Workers; i++ {
		s.workersDone.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler, instrumented with the
// wire-byte counters shared with the binary protocol.
func (s *Server) Handler() http.Handler { return &countingHandler{s: s} }

// countingHandler feeds request/response byte totals into
// dopia_server_bytes_{in,out}_total for the HTTP/JSON protocol.
type countingHandler struct{ s *Server }

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = struct {
			io.Reader
			io.Closer
		}{countingReader{r.Body, &h.s.met.bytesIn}, r.Body}
	}
	h.s.mux.ServeHTTP(&countingResponseWriter{w, countingWriter{w, &h.s.met.bytesOut}}, r)
}

// countingReader / countingWriter feed the wire-byte counters of both
// protocols.
type countingReader struct {
	io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.Reader.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.Writer.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingResponseWriter counts body bytes through countingWriter while
// keeping the rest of the http.ResponseWriter.
type countingResponseWriter struct {
	http.ResponseWriter
	body countingWriter
}

func (c *countingResponseWriter) Write(p []byte) (int, error) { return c.body.Write(p) }

// Framework exposes the shared framework (stats, caches) for
// observability and tests.
func (s *Server) Framework() *core.Framework { return s.fw }

// SetReady flips the readiness gate. A cluster member calls
// SetReady(false) to begin a drain; /readyz and the ready field of
// /healthz, which the router probes, reflect it immediately.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether the daemon is accepting routed work: ready and
// not draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// ProgramIDs lists the content-addressed IDs in the program registry,
// sorted. /healthz reports them, so a router can re-push anything
// missing.
func (s *Server) ProgramIDs() []string {
	ids := []string{}
	s.programs.Each(func(id string, _ *program) { ids = append(ids, id) })
	sort.Strings(ids)
	return ids
}

// SessionCount reports the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// EvictPrograms drops every entry from the program registry and
// returns how many were evicted. Launches referencing an evicted
// p-<sha256> ID fail with 404 until the source is re-registered — the
// cache-eviction fault class of the cluster chaos controller.
func (s *Server) EvictPrograms() int {
	n := s.programs.Purge()
	s.met.programEvictions.Add(int64(n))
	return n
}

// Shutdown drains the daemon: new launches are refused with 503,
// everything already admitted runs to completion (bounded by each
// request's deadline), then the workers exit. Safe to call more than
// once. ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	first := !s.draining.Swap(true)
	s.admitMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	if first {
		close(s.stopWorkers)
	}
	s.workersDone.Wait()
	return nil
}

// Learner exposes the online learner (nil when -online is off) for
// observability and tests.
func (s *Server) Learner() *core.Learner { return s.learner }

// ---------- HTTP handlers ----------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error(), Stage: stageOf(err)}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Retry after roughly one in-flight batch has cleared (429), or
		// long enough for a router to notice the drain and move the
		// session (503).
		retry := time.Second
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		resp.RetryAfterMS = retry.Milliseconds()
	}
	writeJSON(w, status, resp)
}

// DecodeBody decodes a JSON request body of at most limit bytes into v.
// On failure it has answered 400 and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body := io.LimitReader(r.Body, limit)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// registerProgram validates, dedups, and compiles source, shared by the
// JSON and binary protocols. It returns the program, whether it was
// already registered, and an HTTP-status-shaped error.
func (s *Server) registerProgram(source string) (p *program, cached bool, status int, err error) {
	if source == "" {
		s.met.badRequests.Add(1)
		return nil, false, http.StatusBadRequest, fmt.Errorf("empty program source")
	}
	if int64(len(source)) > s.cfg.MaxSourceBytes {
		s.met.badRequests.Add(1)
		return nil, false, http.StatusBadRequest, fmt.Errorf("program source of %d bytes exceeds the %d-byte limit",
			len(source), s.cfg.MaxSourceBytes)
	}
	id := ProgramID(source)

	if p, ok := s.programs.Get(id); ok {
		return p, true, http.StatusOK, nil
	}

	// Compile outside the registry's lock. A racing duplicate build hits
	// the process-wide source-hash dedup cache, so the work is done
	// once; last-write-wins below is safe because compiled programs for
	// one source are interchangeable.
	bctx := s.platform.CreateContext()
	s.fw.Attach(bctx) // warm the analysis caches at build time
	prog := bctx.CreateProgramWithSource(source)
	if err := prog.Build(); err != nil {
		s.met.badRequests.Add(1)
		return nil, false, http.StatusBadRequest, err
	}
	s.met.programBuilds.Add(1)
	var kernels []string
	for _, k := range prog.Compiled().Kernels {
		kernels = append(kernels, k.Name)
	}
	sort.Strings(kernels)
	p = &program{id: id, prog: prog, kernels: kernels}
	s.programs.Put(id, p)
	return p, false, http.StatusOK, nil
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !DecodeBody(w, r, s.limits.Program, &req) {
		s.met.badRequests.Add(1)
		return
	}
	p, cached, status, err := s.registerProgram(req.Source)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, ProgramResponse{ProgramID: p.id, Kernels: p.kernels, Cached: cached})
}

// createSession makes a tenant session (id == "" assigns s-<n>), shared
// by the JSON and binary protocols. It returns the assigned ID and an
// HTTP-status-shaped error.
func (s *Server) createSession(id string) (string, int, error) {
	if s.draining.Load() {
		return "", http.StatusServiceUnavailable, fmt.Errorf("draining")
	}
	if id == "" {
		id = fmt.Sprintf("s-%d", s.nextSession.Add(1))
	} else if len(id) > maxBufferName {
		s.met.badRequests.Add(1)
		return "", http.StatusBadRequest, fmt.Errorf("session id longer than %d characters", maxBufferName)
	}
	sess := s.newSession(id)

	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return "", http.StatusTooManyRequests,
			fmt.Errorf("session limit of %d reached", s.cfg.MaxSessions)
	}
	if _, exists := s.sessions[id]; exists {
		s.mu.Unlock()
		s.met.badRequests.Add(1)
		return "", http.StatusConflict, fmt.Errorf("session %q already exists", id)
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.met.sessionsCreated.Add(1)
	return id, http.StatusOK, nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	// The body is optional; a router places sessions under one global ID
	// on primary and replica nodes by naming it explicitly.
	var req SessionRequest
	if r.ContentLength != 0 {
		if !DecodeBody(w, r, s.limits.Session, &req) {
			s.met.badRequests.Add(1)
			return
		}
	}
	id, status, err := s.createSession(req.SessionID)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{SessionID: id})
}

// handleExportSession snapshots a session — buffers, launch count,
// idempotency entries — for replication or migration. Export stays
// available while draining: drain migration is exactly when it runs.
func (s *Server) handleExportSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", r.PathValue("id")))
		return
	}
	sess.mu.Lock()
	exp := sess.export()
	sess.mu.Unlock()
	s.met.sessionsExported.Add(1)
	writeJSON(w, http.StatusOK, exp)
}

// handleImportSession materializes a session from an export, replacing
// any existing session with the same ID (migration overwrites stale
// replicas). Refused while draining: a draining node must shed
// sessions, not gain them.
func (s *Server) handleImportSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	var exp SessionExport
	if !DecodeBody(w, r, s.cfg.MaxBufferBytes*4+(1<<20), &exp) {
		s.met.badRequests.Add(1)
		return
	}
	if exp.SessionID == "" || len(exp.SessionID) > maxBufferName {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("import: session id required"))
		return
	}
	sess := s.newSession(exp.SessionID)
	if err := sess.restore(&exp, s.cfg.MaxBufferBytes); err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	_, replaced := s.sessions[exp.SessionID]
	if !replaced && len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("session limit of %d reached", s.cfg.MaxSessions))
		return
	}
	s.sessions[exp.SessionID] = sess
	s.mu.Unlock()
	s.met.sessionsImported.Add(1)
	if !replaced {
		s.met.sessionsCreated.Add(1)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session_id": exp.SessionID,
		"buffers":    len(exp.Buffers),
		"replaced":   replaced,
	})
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// closeSession unpublishes a session, shared by both protocols.
// In-flight launches of the session hold sess.mu and finish normally;
// the session just stops being addressable. Its learner state goes with
// it: taking sess.mu waits out the launch in progress, which has finished
// learning by then, and launches still queued behind the close run
// untagged, so the learner never sees them.
func (s *Server) closeSession(id string) (int, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no session %q", id)
	}
	s.met.sessionsClosed.Add(1)
	if s.learner != nil {
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
		s.learner.Forget(id)
	}
	return http.StatusOK, nil
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if status, err := s.closeSession(id); err != nil {
		s.writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

func (s *Server) handleCreateBuffer(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", r.PathValue("id")))
		return
	}
	var req BufferRequest
	if !DecodeBody(w, r, s.limits.Buffer, &req) {
		s.met.badRequests.Add(1)
		return
	}
	sess.mu.Lock()
	b, err := sess.createBuffer(&req, s.cfg.MaxBufferBytes)
	sess.mu.Unlock()
	if err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": req.Name, "len": b.Len()})
}

func (s *Server) handleReadBuffer(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", r.PathValue("id")))
		return
	}
	rb, err := sess.snapshot(r.PathValue("name"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	defer rb.release()
	writeJSON(w, http.StatusOK, rb.data())
}

// handleLaunch is the JSON codec around submit: decode the body into a
// launch, encode the result from its read-set slabs.
func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	decodeStart := time.Now()
	var req LaunchRequest
	if !DecodeBody(w, r, s.limits.Launch, &req) {
		s.met.badRequests.Add(1)
		return
	}
	l, err := launchFromRequest(&req)
	if err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.stages.Record(stageDecode, time.Since(decodeStart).Seconds())

	res, status, err := s.submit(l)
	encodeStart := time.Now()
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, res.response())
	res.release()
	s.met.stages.Record(stageEncode, time.Since(encodeStart).Seconds())
}

// handleModels reports what makes decisions: the static model the
// daemon booted with and, when the online learner is on, the full
// per-tenant learner status (learned answers, explorations, regret).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := ModelsResponse{Online: s.learner != nil}
	if s.cfg.Model != nil {
		resp.StaticModel = s.cfg.Model.Name()
	}
	if s.learner != nil {
		st := s.learner.Status()
		resp.Learner = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: it answers 200 whenever the process
// can serve HTTP at all, even while draining or unready — routing
// decisions belong to /readyz. The body still names the state so
// operators see "draining" at a glance.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	switch {
	case s.draining.Load():
		status = "draining"
	case !s.ready.Load():
		status = "not-ready"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        status,
		Ready:         s.Ready(),
		UptimeSec:     time.Since(s.start).Seconds(),
		QueueDepth:    s.queueLen(),
		QueueCapacity: s.queueCap(),
		InFlight:      int(s.inflight.Load()),
		Sessions:      s.SessionCount(),
		Launches:      s.met.launchesOK.Load(),
		Programs:      s.ProgramIDs(),
	})
}

// handleReadyz is the routing gate: 503 while draining or not yet
// joined, 200 once the node should receive work. Load balancers and
// the cluster router key on this, pulling a node from the ring before
// it starts refusing launches.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.Ready()
	status := "ready"
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		if s.draining.Load() {
			status = "draining"
		} else {
			status = "not-ready"
		}
	}
	writeJSON(w, code, ReadyResponse{Ready: ready, Status: status})
}
