package sim

import (
	"math"
	"testing"
)

func drain(t *testing.T, f *Fluid) map[int]float64 {
	t.Helper()
	finish := map[int]float64{} // by owner
	for i := 0; i < 100000; i++ {
		done, ok := f.Step()
		if !ok {
			return finish
		}
		for _, id := range done {
			finish[id] = f.Time
		}
	}
	t.Fatal("fluid engine did not terminate")
	return nil
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Abs(b)+1e-12 }

func TestFluidPureCompute(t *testing.T) {
	f := NewFluid(10e9)
	id := 0
	f.Add(id, TaskCost{Compute: 2.5})
	fin := drain(t, f)
	if !approx(fin[id], 2.5, 1e-9) {
		t.Errorf("compute-only task finished at %v, want 2.5", fin[id])
	}
}

func TestFluidPureMemory(t *testing.T) {
	f := NewFluid(10e9)
	id := 0
	f.Add(id, TaskCost{MemBytes: 20e9})
	fin := drain(t, f)
	if !approx(fin[id], 2.0, 1e-9) {
		t.Errorf("memory-only task finished at %v, want 2.0", fin[id])
	}
}

func TestFluidBandwidthSharing(t *testing.T) {
	f := NewFluid(10e9)
	a := 0
	f.Add(a, TaskCost{MemBytes: 10e9})
	b := 1
	f.Add(b, TaskCost{MemBytes: 10e9})
	fin := drain(t, f)
	// Two saturating tasks share fairly: both finish at 2s.
	if !approx(fin[a], 2.0, 1e-6) || !approx(fin[b], 2.0, 1e-6) {
		t.Errorf("shared tasks finished at %v and %v, want 2.0", fin[a], fin[b])
	}
}

func TestFluidPerAgentCap(t *testing.T) {
	f := NewFluid(20e9)
	id := 0
	f.Add(id, TaskCost{MemBytes: 10e9, PeakBW: 5e9})
	fin := drain(t, f)
	// The cap, not the DRAM, limits this agent.
	if !approx(fin[id], 2.0, 1e-9) {
		t.Errorf("capped task finished at %v, want 2.0", fin[id])
	}
}

func TestFluidComputeBoundUnaffectedByContention(t *testing.T) {
	f := NewFluid(10e9)
	// A compute-bound task (needs only 1 GB/s) next to a saturating one.
	a := 0
	f.Add(a, TaskCost{Compute: 2, MemBytes: 2e9})
	b := 1
	f.Add(b, TaskCost{MemBytes: 30e9})
	fin := drain(t, f)
	if !approx(fin[a], 2.0, 0.01) {
		t.Errorf("compute-bound task finished at %v, want ~2.0", fin[a])
	}
	// The saturating task gets 9 GB/s while the compute-bound one runs
	// (18 GB in 2 s), then the full 10 GB/s for the remaining 12 GB.
	if !approx(fin[b], 3.2, 0.01) {
		t.Errorf("memory task finished at %v, want 3.2", fin[b])
	}
}

func TestFluidLatencyStretchesUnderCongestion(t *testing.T) {
	// Latency-bound task alone.
	f1 := NewFluid(10e9)
	a1 := 0
	f1.Add(a1, TaskCost{Latency: 1, MemBytes: 1e9, PeakBW: 5e9})
	fin1 := drain(t, f1)

	// Same task next to two saturating streams.
	f2 := NewFluid(10e9)
	a2 := 0
	f2.Add(a2, TaskCost{Latency: 1, MemBytes: 1e9, PeakBW: 5e9})
	f2.Add(1, TaskCost{MemBytes: 100e9})
	f2.Add(2, TaskCost{MemBytes: 100e9})
	fin2 := drain(t, f2)

	if fin2[a2] <= fin1[a1] {
		t.Errorf("latency task must slow under congestion: alone=%v crowded=%v",
			fin1[a1], fin2[a2])
	}
}

func TestFluidMemoryDrainFreesBandwidth(t *testing.T) {
	f := NewFluid(10e9)
	// Short memory task and a long one: after the short one drains, the
	// long one should speed up.
	short := 0
	f.Add(short, TaskCost{MemBytes: 5e9})
	long := 1
	f.Add(long, TaskCost{MemBytes: 15e9})
	fin := drain(t, f)
	// Phase 1: both at 5 GB/s until short finishes at t=1.
	// Phase 2: long at 10 GB/s for remaining 10e9 -> 1s more.
	if !approx(fin[short], 1.0, 0.01) {
		t.Errorf("short finished at %v, want 1.0", fin[short])
	}
	if !approx(fin[long], 2.0, 0.01) {
		t.Errorf("long finished at %v, want 2.0", fin[long])
	}
}

func TestFluidRooflineOverlap(t *testing.T) {
	f := NewFluid(10e9)
	// Compute 1s, memory 2s: overlapped, finishes at 2s.
	id := 0
	f.Add(id, TaskCost{Compute: 1, MemBytes: 20e9})
	fin := drain(t, f)
	if !approx(fin[id], 2.0, 1e-6) {
		t.Errorf("roofline task finished at %v, want 2.0", fin[id])
	}
}

func TestTaskCostHelpers(t *testing.T) {
	c := TaskCost{Compute: 1, Latency: 0.5, MemBytes: 30e9, PeakBW: 10e9}
	if got := c.AloneTime(); !approx(got, 3.0, 1e-9) {
		t.Errorf("AloneTime = %v, want 3.0 (memory-bound)", got)
	}
	c2 := TaskCost{Compute: 2, MemBytes: 1e9, PeakBW: 10e9}
	if got := c2.AloneTime(); !approx(got, 2.0, 1e-9) {
		t.Errorf("AloneTime = %v, want 2.0 (compute-bound)", got)
	}
	sum := c.Plus(c2)
	if sum.Compute != 3 || sum.MemBytes != 31e9 || sum.PeakBW != 10e9 {
		t.Errorf("Plus wrong: %+v", sum)
	}
}
