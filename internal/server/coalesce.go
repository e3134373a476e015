package server

// Launch coalescing: identical launches share one execution.
//
// Execution in this system is a pure function of (program, kernel,
// scalar arguments, ND geometry, buffer-argument contents, buffer
// aliasing pattern) — the conformance lattice (PR 5) proves results
// bit-identical across engines, shard counts, and the serving path. So
// when two sessions submit the same launch over the same bytes, running
// the kernel once and copying the written buffers into both sessions is
// indistinguishable from running it twice. The coalescer exploits that
// at two ranges:
//
//   - In-flight: a launch that arrives while an identical launch is
//     executing parks as a *follower* on the leader's coalition and
//     applies the leader's outputs when it completes. The follower
//     keeps holding its own session lock (intra-session order is
//     preserved) and keeps watching its own deadline — a canceled
//     follower returns 504 with its session untouched and never
//     disturbs the leader.
//   - Completed: the leader's outputs also enter a bounded memo keyed
//     by the same content-addressed key, so identical launches that
//     arrive *after* the execution finished replay the stored outputs
//     without executing. Accumulator-style kernels (y += x) are never
//     wrongly memoized: their output buffer is also an argument, its
//     content is part of the key, and every iteration's pre-state
//     differs.
//
// The key covers buffer contents via the sessions' cached 128-bit
// digests plus the aliasing pattern of the argument list (binding one
// buffer to two parameters can change semantics, so sessions only
// coalesce when their alias structure matches). Everything is bypassed
// while fault injection is armed, like every other cache in the stack.

import (
	"encoding/binary"
	"math"
	"sync"

	"dopia/internal/faults"
)

// coalition is one in-flight execution that identical launches may
// join. res is published (or left nil on leader failure) before done is
// closed.
type coalition struct {
	done chan struct{}
	res  *sharedResult
}

// sharedResult is what a completed execution hands to its followers and
// the memo: the written buffer arguments' contents by argument index,
// plus the result template (everything except per-request fields).
type sharedResult struct {
	outs  []sharedOut
	res   launchResult // bufs/queueMS/execMS left zero; stamped per request
	bytes int64        // memo accounting
}

type sharedOut struct {
	argIdx int
	f32    []float32
	i32    []int32
}

// coalescer owns the in-flight coalition map and the completed-launch
// memo. One short-held mutex guards both; nothing blocks under it.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*coalition
	memo     map[string]*sharedResult
	order    []string // memo FIFO eviction order
	memBytes int64
	maxBytes int64 // <= 0 disables the memo (in-flight coalescing stays on)
}

func newCoalescer(maxBytes int64) *coalescer {
	return &coalescer{
		inflight: map[string]*coalition{},
		memo:     map[string]*sharedResult{},
		maxBytes: maxBytes,
	}
}

// on reports whether coalescing applies right now. Armed fault
// injection makes execution outcomes depend on injection state, so the
// purity argument above does not hold and everything is bypassed —
// matching the cache-bypass contract of the rest of the stack.
func (cl *coalescer) on() bool { return cl != nil && !faults.Active() }

// keyFor serializes the launch identity into a pooled slab: program,
// kernel, geometry, scalar values, and per buffer argument its kind,
// length, alias group (first argument index bound to the same buffer),
// and content digest. Callers hold the session mutex (digests) and must
// return the pool token via putScratch.
func (cl *coalescer) keyFor(l *launch, bufArgs []*sessionBuffer) (*[]byte, []byte) {
	nd := &l.nd
	p, _ := getScratch(0)
	b := (*p)[:0]
	var u8 [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u8[:], v)
		b = append(b, u8[:]...)
	}
	str := func(s string) {
		u64(uint64(len(s)))
		b = append(b, s...)
	}
	str(l.prog.id)
	str(l.kernel)
	u64(uint64(nd.Dims))
	for i := 0; i < 3; i++ {
		u64(uint64(nd.Global[i]))
		u64(uint64(nd.Local[i]))
	}
	u64(uint64(len(l.args)))
	for i, a := range l.args {
		switch a.kind {
		case 'b':
			alias := i
			for j := 0; j < i; j++ {
				if bufArgs[j] == bufArgs[i] {
					alias = j
					break
				}
			}
			kind := byte('f')
			n := 0
			if f := bufArgs[i].b.Float32(); f != nil {
				n = len(f)
			} else {
				kind = 'i'
				n = bufArgs[i].b.Len()
			}
			dig := bufArgs[i].digest()
			b = append(b, 'B', kind)
			u64(uint64(n))
			u64(uint64(alias))
			u64(dig[0])
			u64(dig[1])
		case 'i':
			b = append(b, 'I')
			u64(uint64(a.i))
		case 'f':
			b = append(b, 'F')
			u64(math.Float64bits(a.f))
		}
	}
	*p = b[:cap(b)]
	return p, b
}

// memoGet returns the stored result for key, or nil. The []byte key is
// looked up without allocating.
func (cl *coalescer) memoGet(key []byte) *sharedResult {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.memo[string(key)]
}

// join registers the caller under key: the first caller becomes the
// leader (lead = true) and must later publish or abort; later callers
// get the existing coalition to wait on.
func (cl *coalescer) join(key []byte) (co *coalition, lead bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if co, ok := cl.inflight[string(key)]; ok {
		return co, false
	}
	co = &coalition{done: make(chan struct{})}
	cl.inflight[string(key)] = co
	return co, true
}

// publish completes a coalition with res, waking followers, and enters
// res into the memo.
func (cl *coalescer) publish(key []byte, co *coalition, res *sharedResult) {
	cl.mu.Lock()
	delete(cl.inflight, string(key))
	co.res = res
	if cl.maxBytes > 0 {
		ks := string(key)
		if old, ok := cl.memo[ks]; ok {
			cl.memBytes -= old.bytes
		} else {
			cl.order = append(cl.order, ks)
		}
		cl.memo[ks] = res
		cl.memBytes += res.bytes
		for cl.memBytes > cl.maxBytes && len(cl.order) > 0 {
			victim := cl.order[0]
			cl.order = cl.order[1:]
			if e, ok := cl.memo[victim]; ok {
				cl.memBytes -= e.bytes
				delete(cl.memo, victim)
			}
		}
	}
	cl.mu.Unlock()
	close(co.done)
}

// abort completes a coalition without a result: the leader's execution
// failed, and every follower re-executes independently.
func (cl *coalescer) abort(key []byte, co *coalition) {
	cl.mu.Lock()
	delete(cl.inflight, string(key))
	cl.mu.Unlock()
	close(co.done)
}

// invalidate drops every completed-launch memo entry (in-flight
// coalitions are untouched) and reports how many were dropped. The
// online learner triggers this on every model hot swap: a memoized
// response embeds the DoP decision made when it first executed, and a
// replay after the swap would keep reporting the superseded model's
// choice indefinitely. Result bytes are decision-invariant, so dropping
// entries trades one re-execution per entry for fresh decisions only.
func (cl *coalescer) invalidate() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := len(cl.memo)
	cl.memo = map[string]*sharedResult{}
	cl.order = cl.order[:0]
	cl.memBytes = 0
	return n
}

// stats snapshots memo occupancy for /metrics.
func (cl *coalescer) stats() (entries int, bytes int64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.memo), cl.memBytes
}

// buildShared snapshots the written buffer arguments of a completed
// leader execution. writeMask marks the argument slots the static
// analysis says the kernel writes (maskKnown=false → every buffer
// argument, the conservative over-approximation; copying an unwritten
// buffer is harmless because any follower's matching argument holds
// digest-identical content already). Callers hold the leader's session
// mutex.
func buildShared(lr *launchResult, bufArgs []*sessionBuffer, writeMask uint64, maskKnown bool) *sharedResult {
	res := &sharedResult{res: *lr, bytes: 512}
	for i, sb := range bufArgs {
		if sb == nil {
			continue
		}
		if maskKnown && writeMask&(1<<uint(i)) == 0 {
			continue
		}
		out := sharedOut{argIdx: i}
		if f := sb.b.Float32(); f != nil {
			out.f32 = append([]float32(nil), f...)
			res.bytes += int64(4 * len(f))
		} else {
			out.i32 = append([]int32(nil), sb.b.Int32()...)
			res.bytes += int64(4 * sb.b.Len())
		}
		res.outs = append(res.outs, out)
	}
	return res
}
