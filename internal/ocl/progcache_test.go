package ocl

import (
	"errors"
	"fmt"
	"testing"

	"dopia/internal/faults"
	"dopia/internal/sim"
)

// TestBuildDedupsIdenticalSource verifies that building the same program
// text twice — even in different contexts — compiles once and shares the
// checked program object.
func TestBuildDedupsIdenticalSource(t *testing.T) {
	p := NewPlatform(sim.Kaveri())
	c1, c2 := p.CreateContext(), p.CreateContext()
	pr1 := c1.CreateProgramWithSource(vaddSrc)
	pr2 := c2.CreateProgramWithSource(vaddSrc)
	if err := pr1.Build(); err != nil {
		t.Fatalf("Build 1: %v", err)
	}
	if err := pr2.Build(); err != nil {
		t.Fatalf("Build 2: %v", err)
	}
	if pr1.Compiled() != pr2.Compiled() {
		t.Errorf("identical sources compiled to distinct programs; dedup failed")
	}
	pr3 := c1.CreateProgramWithSource(vaddSrc + "\n// distinct")
	if err := pr3.Build(); err != nil {
		t.Fatalf("Build 3: %v", err)
	}
	if pr3.Compiled() == pr1.Compiled() {
		t.Errorf("distinct sources share a compiled program")
	}
}

// TestBuildCacheBypassedWhileFaultsArmed verifies that an armed clc.parse
// plan fires on every Build of a cached source: memoization must never
// mask an injected fault sequence.
func TestBuildCacheBypassedWhileFaultsArmed(t *testing.T) {
	p := NewPlatform(sim.Kaveri())
	c := p.CreateContext()
	if err := c.CreateProgramWithSource(vaddSrc).Build(); err != nil { // warm
		t.Fatalf("Build: %v", err)
	}
	boom := errors.New("boom")
	faults.InjectError("clc.parse", boom)
	t.Cleanup(faults.Reset)
	err := c.CreateProgramWithSource(vaddSrc).Build()
	if !errors.Is(err, boom) {
		t.Fatalf("Build with armed clc.parse: got %v, want injected error", err)
	}
}

// distinctSrc returns a program text no other test builds.
func distinctSrc(tag string, i int) string {
	return fmt.Sprintf(`__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) a[i] = a[i] * %d.0f; // %s
}`, i+2, tag)
}

// TestProgCacheEvictsLeastRecentlyUsed fills the cache to capacity,
// re-builds the oldest source so it is the most recently used, and adds
// one more: the second-oldest source is the one evicted, and every build
// is counted exactly once as a hit, a miss or an error.
func TestProgCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewPlatform(sim.Kaveri()).CreateContext()
	before := ProgCacheStats()
	builds := 0
	build := func(src string) *Program {
		t.Helper()
		builds++
		p := c.CreateProgramWithSource(src)
		if err := p.Build(); err != nil {
			t.Fatalf("Build: %v", err)
		}
		return p
	}
	first := make([]*Program, progCacheCap)
	for i := range first {
		first[i] = build(distinctSrc("lru", i))
	}
	if got := build(distinctSrc("lru", 0)); got.Compiled() != first[0].Compiled() {
		t.Fatal("a resident source was recompiled at capacity")
	}
	build(distinctSrc("lru", progCacheCap)) // capacity+1: evicts source 1
	if got := build(distinctSrc("lru", 0)); got.Compiled() != first[0].Compiled() {
		t.Error("the most recently used source was evicted")
	}
	if got := build(distinctSrc("lru", 2)); got.Compiled() != first[2].Compiled() {
		t.Error("a source other than the least recently used was evicted")
	}
	if got := build(distinctSrc("lru", 1)); got.Compiled() == first[1].Compiled() {
		t.Error("the least recently used source was not evicted")
	}
	builds++
	if err := c.CreateProgramWithSource("__kernel void broken(").Build(); err == nil {
		t.Fatal("malformed source built")
	}

	d := ProgCacheStats()
	hits, misses, errs := d.Hits-before.Hits, d.Misses-before.Misses, d.Errors-before.Errors
	if hits != 3 || misses != progCacheCap+2 || errs != 1 {
		t.Errorf("hits %d misses %d errors %d, want 3 / %d / 1", hits, misses, errs, progCacheCap+2)
	}
	if hits+misses+errs != int64(builds) {
		t.Errorf("hits %d + misses %d + errors %d != %d builds", hits, misses, errs, builds)
	}
	if st := progCache.Stats(); st.Entries != progCacheCap || st.Cost != progCacheCap {
		t.Errorf("cache holds %d entries at cost %d, want %d", st.Entries, st.Cost, progCacheCap)
	}
}
