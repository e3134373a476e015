package ocl

import (
	"errors"
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
