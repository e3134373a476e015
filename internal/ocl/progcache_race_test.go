package ocl

import (
	"fmt"
	"sync"
	"testing"

	"dopia/internal/sim"
)

// TestProgCacheConcurrentBuilds builds the same small set of sources
// from many goroutines at once — the multi-session serving pattern —
// and checks the dedup counters add up and every build observes a
// usable compiled program. Run under -race in CI.
func TestProgCacheConcurrentBuilds(t *testing.T) {
	const G, per, distinct = 16, 30, 4
	srcs := make([]string, distinct)
	for i := range srcs {
		// Distinct sources (the constant differs) that are new to this
		// process, so the miss count is exactly `distinct`.
		srcs[i] = fmt.Sprintf(`__kernel void k(__global float* a, int n) {
			int i = get_global_id(0);
			if (i < n) a[i] = a[i] + %d.0f;
		}`, i+1)
	}
	before := ProgCacheStats()
	p := NewPlatform(sim.Kaveri())

	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := p.CreateContext()
			for i := 0; i < per; i++ {
				prog := ctx.CreateProgramWithSource(srcs[(g+i)%distinct])
				if err := prog.Build(); err != nil {
					t.Errorf("build: %v", err)
					return
				}
				if prog.Compiled() == nil || prog.Compiled().Kernel("k") == nil {
					t.Error("built program lost its kernel")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	delta := ProgCacheStats()
	hits := delta.Hits - before.Hits
	misses := delta.Misses - before.Misses
	if hits+misses != G*per {
		t.Fatalf("hits %d + misses %d != %d builds", hits, misses, G*per)
	}
	// Every distinct source compiles at least once; racing first builds
	// may compile the same source more than once (compilation runs
	// outside the cache lock and the first result is kept), so the miss
	// count is bounded, not exact.
	if misses < distinct || misses > distinct*G {
		t.Fatalf("misses = %d, want in [%d, %d]", misses, distinct, distinct*G)
	}
	if delta.Errors != before.Errors {
		t.Fatalf("compile errors moved: %d -> %d", before.Errors, delta.Errors)
	}
}
