package sim

import "testing"

// TestSimulateAllocs bounds the allocations of one simulation at the
// counts recorded when the per-agent maps became slices (703 and 150 on
// Kaveri, 627 and 274 on Skylake, before). Per-agent state lives in one
// slice indexed by slot and the fluid engine reuses its finished tasks
// and scratch, so a simulation allocates a fixed set of objects however
// many spans it schedules: its result, the agent table, the engine, one
// task per agent and the growth of the engine's slices.
func TestSimulateAllocs(t *testing.T) {
	km := gesummvModel(t, 16384, 64) // 256 work-groups
	for _, c := range []struct {
		m       *Machine
		dist    Distribution
		ceiling float64
	}{
		{Kaveri(), Dynamic, 22},
		{Kaveri(), HGuided, 22},
		{Skylake(), Dynamic, 30},
		{Skylake(), HGuided, 30},
	} {
		cfg := c.m.AllResources()
		var err error
		got := testing.AllocsPerRun(20, func() {
			_, err = Simulate(c.m, km, cfg, c.dist, SimOptions{})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got > c.ceiling {
			t.Errorf("%s %v: %v allocations per Simulate, ceiling %v", c.m.Name, c.dist, got, c.ceiling)
		}
	}
}

// BenchmarkSweep44 times the 44-configuration DoP sweep of one
// characterization on Kaveri: one Simulate per configuration under
// Algorithm 1.
func BenchmarkSweep44(b *testing.B) {
	m := Kaveri()
	km := gesummvModel(b, 16384, 64)
	cfgs := m.Configs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := Simulate(m, km, cfg, Dynamic, SimOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
