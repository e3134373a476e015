package sim

import (
	"errors"
	"sync"
	"testing"
)

// TestSimulateAllocs holds a simulation to the one object it returns, its
// Result: the fluid engine, its tasks and slices and the agent table are
// pooled scratch (22 allocations on Kaveri and 30 on Skylake before them;
// 703 and 627 when the per-agent state lived in maps). The race detector
// makes sync.Pool drop objects at random, so race builds skip the count.
func TestSimulateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	km := gesummvModel(t, 16384, 64) // 256 work-groups
	for _, c := range []struct {
		m    *Machine
		dist Distribution
	}{
		{Kaveri(), Dynamic},
		{Kaveri(), HGuided},
		{Skylake(), Dynamic},
		{Skylake(), HGuided},
	} {
		cfg := c.m.AllResources()
		var err error
		got := testing.AllocsPerRun(20, func() {
			_, err = Simulate(c.m, km, cfg, c.dist, SimOptions{})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got > 1 {
			t.Errorf("%s %v: %v allocations per Simulate, want 1", c.m.Name, c.dist, got)
		}
	}
}

// TestSimulateConcurrentBitIdentical runs every zoo machine × scheduler ×
// configuration on many goroutines sharing the scratch pool, between
// simulations a span callback aborts mid-schedule (which hands scratch
// with tasks still in flight back to the pool), and holds every Result
// to the one a sequential call returned.
func TestSimulateConcurrentBitIdentical(t *testing.T) {
	km := gesummvModel(t, 4096, 64) // 64 work-groups
	type simCase struct {
		m    *Machine
		cfg  Config
		dist Distribution
	}
	var cases []simCase
	for _, m := range Zoo() {
		for _, cfg := range m.Configs() {
			for _, dist := range Distributions() {
				cases = append(cases, simCase{m, cfg, dist})
			}
		}
	}
	opts := SimOptions{CPUShare: 0.35}
	want := make([]Result, len(cases))
	for i, c := range cases {
		r, err := Simulate(c.m, km, c.cfg, c.dist, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *r
	}
	abort := errors.New("abort")
	aborting := SimOptions{CPUShare: 0.35, OnSpan: func(string, int, int) error { return abort }}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range cases {
				i := (j*workers + w) % len(cases)
				c := cases[i]
				if _, err := Simulate(c.m, km, c.cfg, c.dist, aborting); err != abort {
					errs[w] = err
					return
				}
				r, err := Simulate(c.m, km, c.cfg, c.dist, opts)
				if err != nil {
					errs[w] = err
					return
				}
				if *r != want[i] {
					t.Errorf("%s %v %v: concurrent %+v, sequential %+v", c.m.Name, c.cfg, c.dist, *r, want[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
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
