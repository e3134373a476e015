// Package mem provides the memory-system models of the integrated
// architecture simulator: an analytic working-set cache model with
// concurrency scaling and a GPU memory-coalescing model. Together they
// produce the Dopia paper's central phenomenon — raising the GPU's degree
// of parallelism inflates the cache working set, turning reuse hits into
// DRAM traffic and congesting the shared memory system.
package mem

// LineSize is the cache-line size in bytes used throughout the models.
const LineSize = 64

// This file holds the analytic working-set cache model. It captures the
// paper's Figure 3(b) mechanism: the cache serves reuse only for the part
// of the working set that stays resident, and the working set grows with
// the number of concurrently active threads.

// ThrashFraction returns the fraction of reuse lost when a working set of
// the given size competes for a cache of the given capacity. An LRU cache
// under cyclic reuse degrades as a cliff, not a gentle slope: once the
// working set exceeds capacity, each line is evicted just before its next
// use. The model ramps from 0 (fully resident) to 1 (no reuse survives)
// over a half-capacity transition window that stands in for access-stream
// irregularity and partial residency.
func ThrashFraction(workingSet, capacity float64) float64 {
	if workingSet <= 0 {
		return 0
	}
	if capacity <= 0 {
		return 1
	}
	if workingSet <= capacity {
		return 0
	}
	f := (workingSet - capacity) / (0.5 * capacity)
	if f > 1 {
		return 1
	}
	return f
}

// RandomMissRatio returns the miss ratio of uniformly random accesses over
// a buffer of footprint bytes given available cache capacity. When the
// whole buffer is resident the accesses hit (after cold misses, accounted
// separately by the caller).
func RandomMissRatio(footprint, available float64) float64 {
	if footprint <= 0 {
		return 0
	}
	if available <= 0 {
		return 1
	}
	if footprint <= available {
		return 0
	}
	return (footprint - available) / footprint
}
