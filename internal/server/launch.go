package server

// The one launch path. Both wire protocols decode a request into a
// launch, hand it to submit, and encode the launchResult that comes
// back; nothing below the two codecs knows which protocol is talking.
//
//	codec (JSON | binary) → submit → worker → stages → codec
//
// submit owns everything between the codecs: session and program lookup,
// the deadline, admission and the wait. A worker runs the stages under
// the session lock, in order:
//
//	replay     answer from the idempotency cache
//	bind       resolve kernel, arguments and read-set
//	execute    run the kernel through the fail-open ladder
//	read-back  snapshot the read-set, remember an idempotent result
//
// Every launch either replays its own idempotency key or executes: no
// launch is answered from another launch's execution, so every decision
// a response reports was made for that launch.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dopia/internal/core"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ocl"
)

// launchArg is one decoded kernel argument, by value. kind is 'b' (named
// session buffer), 'i' or 'f' (scalars); 0 means the request gave none.
type launchArg struct {
	kind byte
	buf  string
	i    int64
	f    float64
}

// launch is one launch request in flight: what a codec decoded, what
// submit resolved, and the admission state a worker needs. A binary
// connection reuses one launch for every request it carries.
type launch struct {
	sessionID, programID string
	kernel               string
	nd                   interp.NDRange
	args                 []launchArg
	read                 []string
	idemKey              string
	deadlineMS           int64 // 0 = server default

	// Resolved by submit.
	sess *session
	prog *program

	ctx      context.Context
	cancel   context.CancelFunc
	admitted time.Time
	done     chan launchOutcome
}

// launchResult is the outcome of one launch, identical for both
// protocols. The read-set is carried as little-endian slabs in request
// order and nothing else; the JSON codec base64-encodes from them, the
// binary codec streams them. decision/sim/fallback are written once and
// then shared read-only between a response and the idempotency cache.
type launchResult struct {
	rung, engine    string
	decision        *DecisionInfo
	sim             *ResultInfo
	fallback        *FallbackDelta
	replayed        bool
	queueMS, execMS float64
	bufs            []rawBuf
}

// release hands the pooled read-set slabs back. Slabs owned by the
// idempotency cache (pool == nil) are left alone, so releasing a replayed
// result is harmless.
func (r *launchResult) release() {
	for i := range r.bufs {
		r.bufs[i].release()
	}
}

type launchOutcome struct {
	res    launchResult
	status int
	err    error
}

// rawBuf is a snapshot of one buffer's content as little-endian bytes:
// copied under the session lock, serialized after it is released.
type rawBuf struct {
	name  string
	kind  byte // 'f' float32, 'i' int32
	elems int
	pool  *[]byte // scratch-pool token; nil when raw is owned memory
	raw   []byte
}

// snapshotBuffer copies b's content into a slab — pooled for a response
// that is encoded and dropped, owned when the bytes outlive the request.
func snapshotBuffer(name string, b *ocl.Buffer, pooled bool) rawBuf {
	rb := rawBuf{name: name, kind: 'i', elems: b.Len()}
	if pooled {
		rb.pool, rb.raw = getScratch(4 * rb.elems)
	} else {
		rb.raw = make([]byte, 4*rb.elems)
	}
	if f := b.Float32(); f != nil {
		rb.kind = 'f'
		F32ToLE(rb.raw, f)
	} else {
		I32ToLE(rb.raw, b.Int32())
	}
	return rb
}

func (rb *rawBuf) release() {
	if rb.pool != nil {
		putScratch(rb.pool)
	}
}

// ndFrom validates wire geometry into an NDRange.
func ndFrom(global, local []int) (interp.NDRange, error) {
	var nd interp.NDRange
	if len(global) == 0 || len(global) > 3 || len(local) != len(global) {
		return nd, fmt.Errorf("launch geometry: global and local must both have 1..3 dimensions")
	}
	nd.Dims = len(global)
	for i := range nd.Global {
		nd.Global[i], nd.Local[i] = 1, 1
	}
	copy(nd.Global[:], global)
	copy(nd.Local[:], local)
	return nd, nd.Validate()
}

// ---------- submit: lookup, deadline, admission, wait ----------

// submit carries one decoded launch to its result. A non-nil error comes
// with the HTTP-shaped status either codec reports it under.
func (s *Server) submit(l *launch) (launchResult, int, error) {
	var ok bool
	if l.sess, ok = s.session(l.sessionID); !ok {
		s.met.badRequests.Add(1)
		return launchResult{}, http.StatusNotFound, fmt.Errorf("no session %q", l.sessionID)
	}
	if l.prog, ok = s.programs.Get(l.programID); !ok {
		s.met.badRequests.Add(1)
		return launchResult{}, http.StatusNotFound, fmt.Errorf("no program %q", l.programID)
	}

	deadline := s.cfg.DefaultDeadline
	if l.deadlineMS > 0 {
		deadline = min(time.Duration(l.deadlineMS)*time.Millisecond, s.cfg.MaxDeadline)
	}
	// A request-scoped trace ID would be minted here: every launch of
	// either protocol passes this line exactly once, before any stage.
	l.ctx, l.cancel = context.WithTimeout(context.Background(), deadline)
	l.admitted = time.Now()
	if l.done == nil {
		l.done = make(chan launchOutcome, 1)
	}

	if status := s.admit(l); status != 0 {
		l.cancel()
		s.met.rejected.Add(1)
		return launchResult{}, status, fmt.Errorf("admission queue full (%d deep)", s.cfg.QueueDepth)
	}
	out := <-l.done
	return out.res, out.status, out.err
}

// queueLen sums the depth of every per-worker queue.
func (s *Server) queueLen() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// queueCap sums the capacity of every per-worker queue.
func (s *Server) queueCap() int {
	n := 0
	for _, q := range s.queues {
		n += cap(q)
	}
	return n
}

// admit places l in its session's per-worker queue. It returns an HTTP
// status: 0 (admitted), 503 (draining), or 429 (queue full).
func (s *Server) admit(l *launch) int {
	q := s.queues[l.sess.worker]
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return http.StatusServiceUnavailable
	}
	// Count the launch before the worker can see it: a worker may finish a
	// µs-scale launch (and call pending.Done) before this goroutine runs
	// again after the send.
	s.pending.Add(1)
	select {
	case q <- l:
		return 0
	default:
		s.pending.Done()
		return http.StatusTooManyRequests
	}
}

func (s *Server) worker(i int) {
	defer s.workersDone.Done()
	q := s.queues[i]
	for {
		select {
		case l := <-q:
			s.runAdmitted(l)
		case <-s.stopWorkers:
			// Drain anything still queued (Shutdown waits on pending).
			for {
				select {
				case l := <-q:
					s.runAdmitted(l)
				default:
					return
				}
			}
		}
	}
}

// runAdmitted executes one admitted launch on a worker goroutine and
// delivers its outcome to the waiting submit.
func (s *Server) runAdmitted(l *launch) {
	defer s.pending.Done()
	defer l.cancel()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	queued := time.Since(l.admitted)
	s.met.queueWait.Record(queued.Seconds())
	s.met.stages.Record(stageQueue, queued.Seconds())

	outcome := func(status int, res launchResult, err error) {
		s.met.total.Record(time.Since(l.admitted).Seconds())
		l.done <- launchOutcome{res: res, status: status, err: err}
	}

	// A request whose deadline lapsed while it sat in the queue fails
	// without touching the session.
	if err := l.ctx.Err(); err != nil {
		s.met.deadlineExpired.Add(1)
		outcome(http.StatusGatewayTimeout, launchResult{},
			fmt.Errorf("deadline expired after %v in queue: %w", queued.Round(time.Millisecond), err))
		return
	}

	execStart := time.Now()
	res, err := s.runStages(l)
	execDur := time.Since(execStart)
	s.met.exec.Record(execDur.Seconds())
	s.met.stages.Record(stageExec, execDur.Seconds())

	switch {
	case err == nil:
		s.met.launchesOK.Add(1)
		res.queueMS = float64(queued) / float64(time.Millisecond)
		res.execMS = float64(time.Since(execStart)) / float64(time.Millisecond)
		outcome(http.StatusOK, res, nil)
	case faults.IsTimeout(err) || l.ctx.Err() != nil:
		s.met.deadlineExpired.Add(1)
		outcome(http.StatusGatewayTimeout, launchResult{}, err)
	default:
		s.met.launchErrors.Add(1)
		outcome(http.StatusBadRequest, launchResult{}, err)
	}
}

// ---------- stages ----------

// runStages performs an admitted launch under its session lock.
func (s *Server) runStages(l *launch) (launchResult, error) {
	l.sess.mu.Lock()
	defer l.sess.mu.Unlock()

	if res, ok := s.replay(l); ok {
		return res, nil
	}
	b, err := s.bind(l)
	if err != nil {
		return launchResult{}, err
	}
	res, err := s.execute(l, b)
	if err != nil {
		return launchResult{}, err
	}
	s.readBack(l, b, &res)
	return res, nil
}

// replay answers a launch carrying the key of an already-applied launch
// (router failover retry, replica re-apply) with the stored result, so
// one logical launch mutates session state exactly once per node.
func (s *Server) replay(l *launch) (launchResult, bool) {
	if l.idemKey == "" {
		return launchResult{}, false
	}
	res, ok := l.sess.idem.Get(l.idemKey)
	if ok {
		res.replayed = true
		s.met.idemReplays.Add(1)
	}
	return res, ok
}

// readEntry is one resolved read-set buffer, in request order.
type readEntry struct {
	name string
	b    *ocl.Buffer
}

// binding is a launch resolved against its session: the kernel with its
// arguments set and the deduplicated read-set.
type binding struct {
	kern    *ocl.Kernel
	readSet []readEntry
}

// bind resolves kernel, arguments and read-set, so that a bad name fails
// before anything executes.
func (s *Server) bind(l *launch) (*binding, error) {
	sess := l.sess
	kern, err := l.prog.prog.CreateKernel(l.kernel)
	if err != nil {
		return nil, err
	}
	if len(l.args) != kern.NumArgs() {
		return nil, fmt.Errorf("kernel %s takes %d arguments, got %d", l.kernel, kern.NumArgs(), len(l.args))
	}
	for i, a := range l.args {
		switch a.kind {
		case 'b':
			buf, ok := sess.bufs[a.buf]
			if !ok {
				return nil, fmt.Errorf("argument %d: no buffer %q in session %s", i, a.buf, sess.id)
			}
			err = kern.SetArg(i, buf)
		case 'i':
			err = kern.SetArg(i, a.i)
		case 'f':
			err = kern.SetArg(i, a.f)
		default:
			return nil, fmt.Errorf("argument %d: one of buf/int/float required", i)
		}
		if err != nil {
			return nil, err
		}
	}
	b := &binding{kern: kern, readSet: make([]readEntry, 0, len(l.read))}
next:
	for _, name := range l.read {
		buf, ok := sess.bufs[name]
		if !ok {
			return nil, fmt.Errorf("read: no buffer %q in session %s", name, sess.id)
		}
		for _, e := range b.readSet {
			if e.name == name {
				continue next
			}
		}
		b.readSet = append(b.readSet, readEntry{name: name, b: buf})
	}
	return b, nil
}

// execute runs the bound kernel on the session queue through the
// fail-open ladder and reports what the ladder did.
func (s *Server) execute(l *launch, b *binding) (launchResult, error) {
	sess, q := l.sess, l.sess.queue
	// The session ID doubles as the online learner's tenant key: each
	// session is answered from its own recent signatures, until it is
	// closed.
	tenant := sess.id
	if sess.closed {
		tenant = ""
	}
	q.SetExecContext(core.WithTenant(l.ctx, tenant))
	defer q.SetExecContext(nil)
	q.LastLaunch = nil

	before := q.Fallback.Snapshot()
	simBefore := q.SimTime
	if err := q.EnqueueNDRangeKernel(b.kern, l.nd); err != nil {
		_ = q.Finish() // clear the latch; the error is surfaced directly
		return launchResult{}, err
	}
	if err := q.Finish(); err != nil {
		return launchResult{}, err
	}
	s.met.simTimeNanos.Add(int64((q.SimTime - simBefore) * 1e9))
	if info, ok := q.LastLaunch.(*core.LaunchInfo); ok && info != nil && info.Rung == "managed" && !info.Profiled {
		s.met.profilesReused.Add(1)
	}

	return ladderResult(q, q.Fallback.Snapshot().Sub(before)), nil
}

// ladderResult reports what the fail-open ladder did with the launch the
// queue just finished: rung, engine, decision, simulated outcome, and how
// the launch moved the session's fallback accounting.
func ladderResult(q *ocl.CommandQueue, delta faults.Snapshot) launchResult {
	res := launchResult{rung: "plain", fallback: &FallbackDelta{
		Managed:       delta.Managed,
		CoExecAll:     delta.CoExecAll,
		Plain:         delta.Plain,
		ModelDiscards: delta.ModelDiscards,
		Panics:        delta.Panics,
		Timeouts:      delta.Timeouts,
	}}
	if info, ok := q.LastLaunch.(*core.LaunchInfo); ok && info != nil {
		res.rung = info.Rung
		res.engine = info.Engine
		if d := info.Decision; d != nil {
			res.decision = &DecisionInfo{
				CPUCores:       d.Config.CPUCores,
				GPUFrac:        d.Config.GPUFrac,
				Predicted:      d.Predicted,
				Evaluated:      d.Evaluated,
				ModelDiscarded: d.ModelDiscarded,
				InferUS:        float64(d.InferTime) / float64(time.Microsecond),
				Learned:        d.Learned,
				Explored:       d.Explored,
				Sched:          d.Sched,
			}
		}
	}
	if r := q.LastResult; r != nil {
		res.sim = &ResultInfo{
			SimTimeSec: r.Time,
			WGsCPU:     r.WGsCPU,
			WGsGPU:     r.WGsGPU,
			GPUChunks:  r.GPUChunks,
		}
	}
	return res
}

// readBack finishes a launch that changed session state: count it,
// snapshot the requested read-set under the session lock —
// copy-on-read-back: serialization happens after the lock is gone, so
// the copy is what keeps a later launch from racing it — and remember an
// idempotent launch's result. An idempotent read-set is owned memory
// shared by the response and the cache; any other comes from the pool.
func (s *Server) readBack(l *launch, b *binding, res *launchResult) {
	l.sess.launches.Add(1)
	if len(b.readSet) > 0 {
		res.bufs = make([]rawBuf, len(b.readSet))
		for i, e := range b.readSet {
			res.bufs[i] = snapshotBuffer(e.name, e.b, l.idemKey == "")
		}
	}
	if l.idemKey != "" {
		l.sess.idem.Put(l.idemKey, *res)
	}
}
