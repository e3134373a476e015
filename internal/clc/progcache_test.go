package clc

import (
	"fmt"
	"testing"
)

// distinctSrc returns a program text no other test compiles.
func distinctSrc(tag string, i int) string {
	return fmt.Sprintf(`__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) a[i] = a[i] * %d.0f; // %s
}`, i+2, tag)
}

// evictRuns tags each run of TestProgCacheEvictsLeastRecentlyUsed, so
// that under -count=N every run compiles sources new to the process.
var evictRuns int

// TestProgCacheEvictsLeastRecentlyUsed fills the cache to capacity,
// re-compiles the oldest source so it is the most recently used, and adds
// one more: the second-oldest source is the one evicted, and every
// compilation is counted exactly once as a hit, a miss or an error.
func TestProgCacheEvictsLeastRecentlyUsed(t *testing.T) {
	evictRuns++
	tag := fmt.Sprintf("lru%d", evictRuns)
	before := ProgCacheStats()
	builds := 0
	build := func(src string) *Program {
		t.Helper()
		builds++
		p, err := CompileShared(src)
		if err != nil {
			t.Fatalf("CompileShared: %v", err)
		}
		return p
	}
	first := make([]*Program, ProgCacheCap)
	for i := range first {
		first[i] = build(distinctSrc(tag, i))
	}
	if got := build(distinctSrc(tag, 0)); got != first[0] {
		t.Fatal("a resident source was recompiled at capacity")
	}
	build(distinctSrc(tag, ProgCacheCap)) // capacity+1: evicts source 1
	if got := build(distinctSrc(tag, 0)); got != first[0] {
		t.Error("the most recently used source was evicted")
	}
	if got := build(distinctSrc(tag, 2)); got != first[2] {
		t.Error("a source other than the least recently used was evicted")
	}
	if got := build(distinctSrc(tag, 1)); got == first[1] {
		t.Error("the least recently used source was not evicted")
	}
	builds++
	if _, err := CompileShared("__kernel void broken("); err == nil {
		t.Fatal("malformed source compiled")
	}

	d := ProgCacheStats()
	hits, misses, errs := d.Hits-before.Hits, d.Misses-before.Misses, d.Errors-before.Errors
	if hits != 3 || misses != ProgCacheCap+2 || errs != 1 {
		t.Errorf("hits %d misses %d errors %d, want 3 / %d / 1", hits, misses, errs, ProgCacheCap+2)
	}
	if hits+misses+errs != int64(builds) {
		t.Errorf("hits %d + misses %d + errors %d != %d builds", hits, misses, errs, builds)
	}
	if st := progCache.Stats(); st.Entries != ProgCacheCap || st.Cost != ProgCacheCap {
		t.Errorf("cache holds %d entries at cost %d, want %d", st.Entries, st.Cost, ProgCacheCap)
	}
}
