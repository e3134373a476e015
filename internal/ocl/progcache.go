package ocl

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"dopia/internal/clc"
	"dopia/internal/faults"
)

// progCacheCap bounds how many distinct sources stay resident. It is the
// one number that bounds every build-time artifact in the process: a
// kernel's analysis, malleable code and compiled forms are stored on the
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
var progCache struct {
	mu    sync.Mutex
	byKey map[[sha256.Size]byte]*list.Element // of progEntry
	lru   list.List                           // front = most recently built
}

type progEntry struct {
	key  [sha256.Size]byte
	prog *clc.Program
}

// progCacheCounters tracks how builds moved through the cache. All fields
// are atomics: Build may be called from any number of sessions and worker
// goroutines at once, and /metrics snapshots the counters concurrently
// with them.
var progCacheCounters struct {
	hits     atomic.Int64 // builds served from the cache
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
		Hits:     progCacheCounters.hits.Load(),
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
	c := &progCache
	if armed {
		progCacheCounters.bypasses.Add(1)
	} else {
		c.mu.Lock()
		el := c.byKey[key]
		if el != nil {
			c.lru.MoveToFront(el)
		}
		c.mu.Unlock()
		if el != nil {
			progCacheCounters.hits.Add(1)
			return el.Value.(progEntry).prog, nil
		}
	}
	// Compile outside the lock. Racing first builds of one source may
	// each compile it; the first to finish is kept and served to all.
	prog, err := clc.Compile(src)
	if err != nil {
		progCacheCounters.errors.Add(1)
		return nil, err
	}
	progCacheCounters.misses.Add(1)
	if armed {
		return prog, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.byKey[key]; el != nil {
		return el.Value.(progEntry).prog, nil
	}
	if c.byKey == nil {
		c.byKey = map[[sha256.Size]byte]*list.Element{}
	}
	c.byKey[key] = c.lru.PushFront(progEntry{key, prog})
	if c.lru.Len() > progCacheCap {
		oldest := c.lru.Back()
		delete(c.byKey, c.lru.Remove(oldest).(progEntry).key)
	}
	return prog, nil
}
