package clc

import (
	"crypto/sha256"
	"sync/atomic"

	"dopia/internal/faults"
	"dopia/internal/lru"
)

// ProgCacheCap bounds how many distinct sources stay resident. It is the
// one number that bounds every build-time artifact in the process, for ocl
// builds and workload kernels alike: a kernel's analysis, layout, compiled
// forms and model memo (and its malleable code, where a caller asked
// transform.MalleableGPU for it) are stored on the kernel (Memo), so
// evicting a program here frees them with it once its callers drop it.
const ProgCacheCap = 256

// progCache deduplicates compilations by source hash: a serving daemon's
// tenants submitting the same kernels, an application rebuilding one text
// per launch site, and one workload characterized on several machines
// compile once while the source stays among the ProgCacheCap most recently
// compiled. Identical sources yield identical *Program / *Kernel pointers,
// and with them one shared set of derived artifacts.
//
// Checked programs are immutable, so sharing one is safe. The cache is
// bypassed while fault injection is armed: an armed clc.parse plan must
// observe every compilation, not just the first per distinct source.
var progCache = lru.New[[sha256.Size]byte, *Program](ProgCacheCap, nil)

// progCacheCounters tracks the compilations the cache did not serve (its
// own Stats count the ones it did). All fields are atomics: CompileShared
// may be called from any number of goroutines at once, and /metrics
// snapshots the counters concurrently with them.
var progCacheCounters struct {
	misses   atomic.Int64 // compilations that ran (first sight of a source)
	errors   atomic.Int64 // compilations that failed (never cached)
	bypasses atomic.Int64 // cache reads skipped because faults were armed
}

// ProgCacheSnapshot is a point-in-time view of the program cache's
// counters: compilations it served, ran, failed and bypassed.
type ProgCacheSnapshot struct{ Hits, Misses, Errors, Bypasses int64 }

// ProgCacheStats atomically reads the program-cache counters. Counters
// move independently, so a snapshot racing a compilation may observe the
// hit of that compilation and not yet its predecessor's — each
// individual counter is still exact and monotone.
func ProgCacheStats() ProgCacheSnapshot {
	return ProgCacheSnapshot{
		Hits:     progCache.Stats().Hits,
		Misses:   progCacheCounters.misses.Load(),
		Errors:   progCacheCounters.errors.Load(),
		Bypasses: progCacheCounters.bypasses.Load(),
	}
}

// CompileShared returns the checked program for src, shared with every
// other caller that compiles the same text while it stays resident. The
// program and its kernels are read-only; call Compile for a private one.
func CompileShared(src string) (*Program, error) {
	armed := faults.Active()
	key := sha256.Sum256([]byte(src))
	if armed {
		progCacheCounters.bypasses.Add(1)
	} else if prog, ok := progCache.Get(key); ok {
		return prog, nil
	}
	// Compile outside the cache's lock. Racing first compilations of one
	// source may each compile it; the last to finish is the one later
	// callers share.
	prog, err := Compile(src)
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
