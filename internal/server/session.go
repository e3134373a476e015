package server

// Tenant sessions. Each session owns an OpenCL context of its own — its
// buffers, its command queue, its address space, its per-queue
// FallbackStats — while sharing the compiled artifacts (program dedup,
// and through it each kernel's analysis, layout and compiled forms) with
// every other tenant. That split is the isolation contract:
// compiled artifacts are immutable and safe to share; mutable state
// (buffers) never crosses a session boundary.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dopia/internal/lru"
	"dopia/internal/ocl"
	"dopia/internal/workloads"
)

// session is one tenant: private buffers and command queue, shared
// compiled artifacts.
type session struct {
	id      string
	created time.Time
	// worker indexes the queue all of the session's launches run from.
	worker int

	// mu serializes everything touching the session's mutable state:
	// buffer creation/reads and launches (an ocl.CommandQueue is an
	// in-order queue and not goroutine-safe). Cross-session parallelism
	// comes from the worker pool; intra-session launches are ordered,
	// matching OpenCL in-order queue semantics.
	mu    sync.Mutex
	ctx   *ocl.Context
	queue *ocl.CommandQueue
	bufs  map[string]*ocl.Buffer

	// idem remembers recently applied launches by idempotency key so a
	// failover retry returns the stored response instead of executing
	// twice. Results are stored and returned by value; what they point at
	// (decision, result, owned read-set slabs) is written once and then
	// read-only, so a replay shares it with the stored entry. This is
	// correctness state, so it is consulted while faults are armed too.
	idem *lru.Cache[string, launchResult]

	// closed is set once closeSession has dropped the session's learner
	// state; a launch admitted before the close still runs, but not as
	// the session's tenant.
	closed bool

	launches atomic.Int64
}

// newSession creates a tenant session on the server's platform with the
// framework attached, so every launch runs the full fail-open ladder.
func (s *Server) newSession(id string) *session {
	ctx := s.platform.CreateContext()
	s.fw.Attach(ctx)
	return &session{
		id:      id,
		created: time.Now(),
		worker:  int((s.nextWorker.Add(1) - 1) % uint64(len(s.queues))),
		ctx:     ctx,
		queue:   ctx.CreateCommandQueue(s.platform.Device(ocl.DeviceCPU)),
		bufs:    map[string]*ocl.Buffer{},
		idem:    lru.New[string, launchResult](idemCacheCap, nil),
	}
}

// idemCacheCap bounds a session's idempotency cache: the last 128
// completed keyed launches stay replayable.
const idemCacheCap = 128

// export snapshots the session for replication/migration, converting
// each stored result to its wire form. Callers hold sess.mu.
func (sess *session) export() *SessionExport {
	exp := &SessionExport{
		SessionID: sess.id,
		Launches:  sess.launches.Load(),
		Buffers:   make(map[string]BufferData, len(sess.bufs)),
	}
	for name, b := range sess.bufs {
		rb := snapshotBuffer(name, b, true)
		exp.Buffers[name] = rb.data()
		rb.release()
	}
	sess.idem.Each(func(k string, res launchResult) {
		e := IdemEntry{Key: k, Resp: res.response()}
		for i := range res.bufs {
			e.Read = append(e.Read, res.bufs[i].name)
		}
		exp.Idem = append(exp.Idem, e)
	})
	return exp
}

// restore fills a fresh session from an export. The session is not yet
// published, so no lock is needed.
func (sess *session) restore(exp *SessionExport, maxBytes int64) error {
	for name, data := range exp.Buffers {
		req := &BufferRequest{Name: name, Kind: data.Kind, F32B64: data.F32B64, I32B64: data.I32B64}
		if _, err := sess.createBuffer(req, maxBytes); err != nil {
			return fmt.Errorf("import %s: %w", exp.SessionID, err)
		}
	}
	for _, e := range exp.Idem {
		if e.Key != "" && e.Resp != nil {
			res, err := resultFromResponse(e.Resp, e.Read)
			if err != nil {
				return fmt.Errorf("import %s: idem entry %q: %w", exp.SessionID, e.Key, err)
			}
			sess.idem.Put(e.Key, res)
		}
	}
	sess.launches.Store(exp.Launches)
	return nil
}

// snapshot copies the named buffer's content into a pooled slab under
// the session lock; the caller serializes it after the lock is gone and
// then releases it.
func (sess *session) snapshot(name string) (rawBuf, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	b, ok := sess.bufs[name]
	if !ok {
		return rawBuf{}, fmt.Errorf("no buffer %q in session %s", name, sess.id)
	}
	return snapshotBuffer(name, b, true), nil
}

// maxBufferName bounds buffer name length (they appear in URLs).
const maxBufferName = 128

// newBuffer is the one validated buffer constructor: a fresh name, kind
// 'f' or 'i', a positive element count inside the per-buffer limit, and
// a fill callback (nil = zeroed) that writes the content in place.
// Callers hold sess.mu.
func (sess *session) newBuffer(name string, kind byte, n int, maxBytes int64, fill func(*ocl.Buffer) error) (*ocl.Buffer, error) {
	if name == "" || len(name) > maxBufferName {
		return nil, fmt.Errorf("buffer name must be 1..%d characters", maxBufferName)
	}
	if _, exists := sess.bufs[name]; exists {
		return nil, fmt.Errorf("buffer %q already exists in session %s", name, sess.id)
	}
	if n <= 0 {
		return nil, fmt.Errorf("buffer %q: positive element count (or data) required", name)
	}
	if int64(n)*4 > maxBytes {
		return nil, fmt.Errorf("buffer %q: %d bytes exceeds the per-buffer limit of %d", name, int64(n)*4, maxBytes)
	}
	var b *ocl.Buffer
	switch kind {
	case 'f':
		b = sess.ctx.CreateFloatBuffer(n)
	case 'i':
		b = sess.ctx.CreateIntBuffer(n)
	default:
		return nil, fmt.Errorf("buffer %q: unsupported kind (float32 or int32)", name)
	}
	if fill != nil {
		if err := fill(b); err != nil {
			return nil, err
		}
	}
	sess.bufs[name] = b
	return b, nil
}

// createBuffer materializes a named buffer from a BufferRequest: the
// content source is validated first, then base64 payloads decode straight
// into the buffer's element storage through a pooled scratch slab, with
// no intermediate element slice. Callers hold sess.mu.
func (sess *session) createBuffer(req *BufferRequest, maxBytes int64) (*ocl.Buffer, error) {
	n, err := contentLen(req)
	if err != nil {
		return nil, err
	}
	var kind byte
	switch req.Kind {
	case "float32":
		kind = 'f'
	case "int32":
		kind = 'i'
	}
	return sess.newBuffer(req.Name, kind, n, maxBytes, func(b *ocl.Buffer) error {
		switch {
		case req.F32B64 != "":
			return DecodeF32Into(b.Float32(), req.F32B64)
		case req.I32B64 != "":
			return DecodeI32Into(b.Int32(), req.I32B64)
		case req.F32 != nil:
			copy(b.Float32(), req.F32)
		case req.I32 != nil:
			copy(b.Int32(), req.I32)
		case req.FillSeed != nil && kind == 'f':
			workloads.FillFloats(b.Raw(), *req.FillSeed)
		case req.FillSeed != nil:
			workloads.FillInts(b.Raw(), *req.FillSeed, req.FillMod)
		}
		return nil
	})
}

// Binary-protocol buffer content tags.
const (
	binContentZero = 0 // allocate zeroed
	binContentFill = 1 // deterministic server-side fill (seed, mod)
	binContentRaw  = 2 // raw little-endian element bytes follow
)

// contentLen validates that at most one content source is present and
// kind-compatible, and resolves the buffer's element count.
func contentLen(req *BufferRequest) (int, error) {
	if (req.F32B64 != "" || req.F32 != nil) && req.Kind == "int32" {
		return 0, fmt.Errorf("buffer %q: float data for an int32 buffer", req.Name)
	}
	if (req.I32B64 != "" || req.I32 != nil) && req.Kind == "float32" {
		return 0, fmt.Errorf("buffer %q: int data for a float32 buffer", req.Name)
	}
	sources, n := 0, req.Len
	for _, src := range []struct {
		present   bool
		b64, what string
		elems     int
	}{
		{req.F32B64 != "", req.F32B64, "f32", 0},
		{req.F32 != nil, "", "", len(req.F32)},
		{req.I32B64 != "", req.I32B64, "i32", 0},
		{req.I32 != nil, "", "", len(req.I32)},
	} {
		if !src.present {
			continue
		}
		if src.b64 != "" {
			var err error
			if src.elems, err = b64Elems(src.b64); err != nil {
				return 0, fmt.Errorf("server: bad %s base64: %w", src.what, err)
			}
		}
		sources++
		if req.Len != 0 && req.Len != src.elems {
			return 0, fmt.Errorf("buffer %q: len %d contradicts %d data elements", req.Name, req.Len, src.elems)
		}
		n = src.elems
	}
	if req.FillSeed != nil {
		sources++
	}
	if sources > 1 {
		return 0, fmt.Errorf("buffer %q: more than one content source", req.Name)
	}
	return n, nil
}
