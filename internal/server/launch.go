package server

// The one launch path. Both wire protocols decode a request into a
// launch, hand it to submit, and encode the launchResult that comes
// back; nothing below the two codecs knows which protocol is talking.
//
//	codec (JSON | binary) → submit → worker → stages → codec
//
// submit owns everything between the codecs: session and program lookup,
// the deadline, admission, the 429 memo bypass and the wait. A worker
// runs the stages under the session lock, in order:
//
//	replay     answer from the idempotency cache
//	bind       resolve kernel, arguments and read-set
//	share      take an identical launch's outputs (memo, else coalition)
//	execute    run the kernel through the fail-open ladder
//	publish    hand the outputs to followers and the memo
//	read-back  snapshot the read-set, remember an idempotent result
//
// The memo bypass runs replay, bind and share inline and stops there.

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
// then shared read-only between responses, the idempotency cache and the
// launch memo.
type launchResult struct {
	rung, engine        string
	decision            *DecisionInfo
	sim                 *ResultInfo
	fallback            *FallbackDelta
	replayed, coalesced bool
	queueMS, execMS     float64
	bufs                []rawBuf
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

// ---------- submit: lookup, deadline, admission, bypass, wait ----------

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
		defer l.cancel()
		if status == http.StatusTooManyRequests {
			if res, err, ok := s.memoBypass(l); ok {
				if err != nil {
					return launchResult{}, http.StatusBadRequest, err
				}
				return res, http.StatusOK, nil
			}
		}
		s.met.rejected.Add(1)
		return launchResult{}, status, fmt.Errorf("admission queue full (%d deep)", s.cfg.QueueDepth)
	}
	out := <-l.done
	return out.res, out.status, out.err
}

// workerOf pins a session to a worker by FNV-1a hash of its ID, so all
// of one session's launches run on one goroutine.
func (s *Server) workerOf(sessionID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(sessionID); i++ {
		h = (h ^ uint32(sessionID[i])) * 16777619
	}
	return int(h % uint32(len(s.queues)))
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
	q := s.queues[s.workerOf(l.sessionID)]
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

// memoBypass gives a launch that admission control just rejected (429)
// one chance to be answered from the idempotency cache or the
// completed-launch memo, inline on the handler goroutine. Replays cost no
// engine work, so serving them under overload cannot deepen the overload
// — identical hot launches keep flowing at full rate while the queue
// sheds genuinely new work. The probe still registers with pending under
// admitMu so Shutdown's drain accounting stays exact. ok reports whether
// the launch was handled here; !ok means the caller must send the
// original rejection.
func (s *Server) memoBypass(l *launch) (res launchResult, err error, ok bool) {
	if !s.coal.on() {
		return res, nil, false
	}
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		return res, nil, false
	}
	s.pending.Add(1)
	s.admitMu.Unlock()
	defer s.pending.Done()

	// The server is saturated and the session lock may be held by a
	// wedged launch for arbitrarily long; a replay is only worth serving
	// if it is cheap right now — so never wait for it.
	if !l.sess.mu.TryLock() {
		return res, nil, false
	}
	defer l.sess.mu.Unlock()

	if res, err, ok = s.answerStored(l); !ok {
		return res, nil, false
	}
	s.met.memoBypass.Add(1)
	if err == nil {
		s.met.launchesOK.Add(1)
	} else {
		s.met.launchErrors.Add(1)
	}
	return res, err, true
}

// answerStored runs the stages that can answer a launch without
// executing it — replay, bind, and a share that never parks as a
// coalition follower (that waits on real execution) or leads one. Callers
// hold the session lock.
func (s *Server) answerStored(l *launch) (launchResult, error, bool) {
	if res, ok := s.replay(l); ok {
		return res, nil, true
	}
	b, err := s.bind(l)
	if err != nil {
		return launchResult{}, err, true
	}
	shared, _ := s.share(l, b, false)
	if shared == nil {
		return launchResult{}, nil, false
	}
	res := s.applyShared(b, shared)
	s.readBack(l, b, &res)
	return res, nil, true
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
	shared, err := s.share(l, b, true)
	if err != nil {
		return launchResult{}, err
	}
	var res launchResult
	if shared != nil {
		res = s.applyShared(b, shared)
	} else {
		res, err = s.execute(l, b)
		s.publish(b, &res, err)
		if err != nil {
			return launchResult{}, err
		}
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
	sb   *sessionBuffer
}

// binding is a launch resolved against its session: the kernel with its
// arguments set, the buffer behind each argument slot (nil for scalars),
// the deduplicated read-set, and — once share has run — the coalescing
// key and the coalition this launch leads.
type binding struct {
	kern    *ocl.Kernel
	bufArgs []*sessionBuffer
	readSet []readEntry

	key  launchKey
	lead *coalition
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
	b := &binding{kern: kern, bufArgs: make([]*sessionBuffer, len(l.args))}
	for i, a := range l.args {
		switch a.kind {
		case 'b':
			sb, ok := sess.bufs[a.buf]
			if !ok {
				return nil, fmt.Errorf("argument %d: no buffer %q in session %s", i, a.buf, sess.id)
			}
			b.bufArgs[i] = sb
			err = kern.SetArg(i, sb.b)
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
	b.readSet = make([]readEntry, 0, len(l.read))
next:
	for _, name := range l.read {
		sb, ok := sess.bufs[name]
		if !ok {
			return nil, fmt.Errorf("read: no buffer %q in session %s", name, sess.id)
		}
		for _, e := range b.readSet {
			if e.name == name {
				continue next
			}
		}
		b.readSet = append(b.readSet, readEntry{name: name, sb: sb})
	}
	return b, nil
}

// share looks for an identical launch (same program, kernel, geometry,
// scalars, buffer contents and aliasing) to take outputs from: the
// completed-launch memo first, then — when the caller may wait — an
// in-flight coalition. A nil result means execute; b.lead is then set if
// this launch leads a coalition and must publish.
func (s *Server) share(l *launch, b *binding, mayWait bool) (*sharedResult, error) {
	if !s.coal.on() || len(l.args) > 64 {
		return nil, nil
	}
	b.key = s.coal.keyFor(l, b.bufArgs)
	if res, ok := s.coal.memo.Get(b.key); ok {
		return res, nil
	}
	if !mayWait {
		return nil, nil
	}
	co, lead := s.coal.join(b.key)
	if lead {
		b.lead = co
		if s.testHookLeader != nil {
			s.testHookLeader()
		}
		return nil, nil
	}
	// Follower: park on the leader's coalition while holding our own
	// session lock (intra-session order is preserved; the leader never
	// waits on another session's lock, so there is no cycle), watching
	// our own deadline only.
	select {
	case <-co.done:
	case <-l.ctx.Done():
		// Canceled follower: 504 with the session untouched; the leader's
		// execution is not disturbed.
		return nil, fmt.Errorf("deadline expired while coalesced behind an identical launch: %w", l.ctx.Err())
	}
	if co.res != nil {
		s.met.coalescedFollowers.Add(1)
	}
	// A failed leader leaves res nil: execute independently, without
	// publishing — each follower re-runs its own copy.
	return co.res, nil
}

// applyShared copies a shared execution's outputs into this session's
// own argument buffers. Copying is exact: the coalescing key pins each
// argument's length and content, so leader and follower buffers are
// structurally identical.
func (s *Server) applyShared(b *binding, shared *sharedResult) launchResult {
	for _, o := range shared.outs {
		sb := b.bufArgs[o.argIdx]
		if o.f32 != nil {
			copy(sb.b.Float32(), o.f32)
		} else {
			copy(sb.b.Int32(), o.i32)
		}
		sb.touch()
	}
	res := shared.res
	res.coalesced = true
	return res
}

// execute runs the bound kernel on the session queue through the
// fail-open ladder and reports what the ladder did.
func (s *Server) execute(l *launch, b *binding) (launchResult, error) {
	sess, q := l.sess, l.sess.queue
	// The session ID doubles as the online learner's tenant key: each
	// session gets its own model, until it is closed.
	tenant := sess.id
	if sess.closed {
		tenant = ""
	}
	q.SetExecContext(core.WithTenant(l.ctx, tenant))
	defer q.SetExecContext(nil)
	q.LastLaunch = nil

	// The execution may rewrite any buffer the kernel's write set names;
	// their cached digests go stale either way (even a failed rung is
	// rolled back to identical bytes, but touching is cheap and
	// unconditionally safe).
	mask, known := s.writeMask(b.kern)
	for i, sb := range b.bufArgs {
		if sb != nil && (!known || mask&(1<<uint(i)) != 0) {
			sb.touch()
		}
	}

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
				ModelGen:       d.ModelGen,
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

// publish ends the coalition this launch leads, if any: a success wakes
// the followers with the written buffers and enters the memo, a failure
// sends every follower off to execute on its own.
func (s *Server) publish(b *binding, res *launchResult, err error) {
	switch {
	case b.lead == nil:
	case err != nil:
		s.coal.complete(b.key, b.lead, nil)
	default:
		mask, known := s.writeMask(b.kern)
		s.coal.complete(b.key, b.lead, buildShared(res, b.bufArgs, mask, known))
	}
}

// readBack finishes a launch that changed (or shared) session state:
// count it, snapshot the requested read-set under the session lock —
// copy-on-read-back: serialization happens after the lock is gone, so
// the copy is what keeps a later launch from racing it — and remember an
// idempotent launch's result. An idempotent read-set is owned memory
// shared by the response and the cache; any other comes from the pool.
func (s *Server) readBack(l *launch, b *binding, res *launchResult) {
	l.sess.launches.Add(1)
	if len(b.readSet) > 0 {
		res.bufs = make([]rawBuf, len(b.readSet))
		for i, e := range b.readSet {
			res.bufs[i] = snapshotBuffer(e.name, e.sb.b, l.idemKey == "")
		}
	}
	if l.idemKey != "" {
		l.sess.idem.Put(l.idemKey, *res)
	}
}

// writeMask returns a bitmask of the argument slots the kernel's static
// analysis marks as written (stores plus atomic targets). known == false
// means the analysis is unavailable or the kernel has too many parameters
// for the mask; callers must then treat every buffer argument as written.
func (s *Server) writeMask(kern *ocl.Kernel) (mask uint64, known bool) {
	ck := kern.Compiled()
	if ck == nil || len(ck.Params) > 64 {
		return 0, false
	}
	res, err := s.fw.Analysis(ck)
	if err != nil || res == nil {
		return 0, false
	}
	for _, slot := range res.WrittenArgs() {
		mask |= 1 << uint(slot)
	}
	return mask, true
}
