package interp

import "math"

// Engine selects which execution engine an Exec uses to run compiled
// kernels. Both engines are bit-identical in every observable: output
// buffers, statistics, site profiles, trace streams, and fault behaviour.
// The bytecode engine is the fast path; the closure engine is the
// reference implementation and the fallback for anything the lowerer
// cannot handle.
type Engine int8

// Engine values.
const (
	// EngineAuto, the zero value, means the bytecode engine.
	EngineAuto Engine = iota
	// EngineBytecode runs kernels on the register-based bytecode VM,
	// falling back per kernel to closures when lowering fails (the
	// fallback reason is recorded in RunStats/Profile).
	EngineBytecode
	// EngineClosures runs kernels on the tree-of-closures interpreter.
	EngineClosures
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBytecode:
		return "bytecode"
	case EngineClosures:
		return "closures"
	}
	return "engine(?)"
}

// ---------------------------------------------------------------------------
// Sampled access profiling
//
// The per-access pattern classifier (siteState.recordAccess) is the
// second-largest cost of a profiled launch after dispatch itself. In
// sampled mode the classifier observes only a deterministic, hash-chosen
// subset of work-groups (SHARDS-style spatial sampling at work-group
// granularity): within a sampled group every access is recorded exactly,
// so iteration-stride evidence stays intact, while unsampled groups skip
// the classifier entirely. Aggregate counters (Loads, Stores, bytes) and
// the trace sink remain exact in every mode.
//
// Sampling is deterministic in (seed, group id) and independent of the
// shard count, so sampled profiles are bit-identical across engines and
// parallelism levels. Exact mode (rate 0 or >= 1) is the default.

// sampleThreshold converts a sampling rate into a 64-bit hash threshold.
// Zero means exact profiling (every group classified).
func sampleThreshold(rate float64) uint64 {
	if rate <= 0 || rate >= 1 {
		return 0
	}
	return uint64(rate * float64(math.MaxUint64))
}

// sampleHash is a splitmix64-style mix of the seed and a work-group id.
// It is pure integer arithmetic, so sampling decisions are identical on
// every platform, engine, and shard count.
func sampleHash(seed, group uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(group+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// groupClassified reports whether the classifier records accesses of the
// work-group with the given linear id under threshold th (0 = exact).
func groupClassified(th, seed uint64, linear int) bool {
	return th == 0 || sampleHash(seed, uint64(linear)) < th
}
