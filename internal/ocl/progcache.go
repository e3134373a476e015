package ocl

import (
	"crypto/sha256"
	"sync/atomic"

	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/lru"
)

// progCacheCap bounds how many distinct sources stay resident. It is the
// one number that bounds every build-time artifact in the process: a
// kernel's analysis, layout and compiled forms (and its malleable code,
// where a caller asked transform.MalleableGPU for it) are stored on the
// kernel (clc.Memo), so evicting a program here frees them with it once
// the application has released its own Program objects.
const progCacheCap = 256

// progCache deduplicates program builds by source hash: applications that
// call clCreateProgramWithSource + clBuildProgram repeatedly with the same
// text (a common pattern per launch site, and the common case for a
// serving daemon handling many tenants submitting the same kernels)
// compile once while the source stays among the progCacheCap most
// recently built. Identical sources yield identical *clc.Program /
// *clc.Kernel pointers, and with them one shared set of derived
// artifacts.
//
// Checked programs are immutable, so sharing one across Program objects
// (and contexts) is safe. The cache is bypassed while fault injection is
// armed: an armed clc.parse plan must observe every Build, not just the
// first per distinct source.
var progCache = lru.New[[sha256.Size]byte, *clc.Program](progCacheCap, nil)

// progCacheCounters tracks the builds the cache did not serve (its own
// Stats count the ones it did). All fields are atomics: Build may be
// called from any number of sessions and worker goroutines at once, and
// /metrics snapshots the counters concurrently with them.
var progCacheCounters struct {
	misses   atomic.Int64 // builds that compiled (first sight of a source)
	errors   atomic.Int64 // compilations that failed (never cached)
	bypasses atomic.Int64 // cache reads skipped because faults were armed
}

// ProgCacheSnapshot is a point-in-time view of the program-dedup cache
// counters.
type ProgCacheSnapshot struct {
	Hits     int64
	Misses   int64
	Errors   int64
	Bypasses int64
}

// ProgCacheStats atomically reads the program-cache counters. Counters
// move independently, so a snapshot racing a Build may observe the hit
// of that build and not yet its predecessor's — each individual counter
// is still exact and monotone.
func ProgCacheStats() ProgCacheSnapshot {
	return ProgCacheSnapshot{
		Hits:     progCache.Stats().Hits,
		Misses:   progCacheCounters.misses.Load(),
		Errors:   progCacheCounters.errors.Load(),
		Bypasses: progCacheCounters.bypasses.Load(),
	}
}

// compileSource returns the checked program for src, shared with every
// other build of the same text while it stays resident.
func compileSource(src string) (*clc.Program, error) {
	armed := faults.Active()
	key := sha256.Sum256([]byte(src))
	if armed {
		progCacheCounters.bypasses.Add(1)
	} else if prog, ok := progCache.Get(key); ok {
		return prog, nil
	}
	// Compile outside the cache's lock. Racing first builds of one source
	// may each compile it; the last to finish is the one later builds
	// share.
	prog, err := clc.Compile(src)
	if err != nil {
		progCacheCounters.errors.Add(1)
		return nil, err
	}
	progCacheCounters.misses.Add(1)
	if !armed {
		progCache.Put(key, prog)
	}
	return prog, nil
}
