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
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"dopia/internal/faults"
	"dopia/internal/lru"
)

// launchKey identifies a launch by content: the SHA-256 of its serialized
// identity (see keyFor). Fixed-size, so neither map lookup allocates.
type launchKey [sha256.Size]byte

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
// memo. mu guards only the map; the memo locks itself.
type coalescer struct {
	mu       sync.Mutex
	inflight map[launchKey]*coalition
	// memo is bounded in bytes (sharedResult.bytes); a budget <= 0 retains
	// nothing, which disables it while in-flight coalescing stays on.
	memo *lru.Cache[launchKey, *sharedResult]
}

func newCoalescer(maxBytes int64) *coalescer {
	return &coalescer{
		inflight: map[launchKey]*coalition{},
		memo:     lru.New[launchKey](maxBytes, func(r *sharedResult) int64 { return r.bytes }),
	}
}

// on reports whether coalescing applies right now. Armed fault
// injection makes execution outcomes depend on injection state, so the
// purity argument above does not hold and everything is bypassed —
// matching the cache-bypass contract of the rest of the stack.
func (cl *coalescer) on() bool { return cl != nil && !faults.Active() }

// keyFor hashes the launch identity: program, kernel, geometry, scalar
// values, and per buffer argument its kind, length, alias group (first
// argument index bound to the same buffer), and content digest. Callers
// hold the session mutex (digests).
func (cl *coalescer) keyFor(l *launch, bufArgs []*sessionBuffer) launchKey {
	nd := &l.nd
	// Serialized on the stack; only a launch with a dozen or more buffer
	// arguments outgrows the array and spills to the heap.
	var slab [512]byte
	b := slab[:0]
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
	return sha256.Sum256(b)
}

// join registers the caller under key: the first caller becomes the
// leader (lead = true) and must later complete it; later callers
// get the existing coalition to wait on.
func (cl *coalescer) join(key launchKey) (co *coalition, lead bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if co, ok := cl.inflight[key]; ok {
		return co, false
	}
	co = &coalition{done: make(chan struct{})}
	cl.inflight[key] = co
	return co, true
}

// complete ends a coalition. A non-nil res enters the memo and wakes the
// followers with it; nil means the leader's execution failed, and every
// follower re-executes independently.
func (cl *coalescer) complete(key launchKey, co *coalition, res *sharedResult) {
	if res != nil {
		cl.memo.Put(key, res)
	}
	cl.mu.Lock()
	delete(cl.inflight, key)
	cl.mu.Unlock()
	co.res = res
	close(co.done)
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
