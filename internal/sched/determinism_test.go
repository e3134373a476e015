package sched

import (
	"strings"
	"testing"

	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestSimulateBitIdenticalRunToRun: sim.Simulate is a pure function, so
// repeating it must reproduce the whole Result bit for bit — on every
// zoo machine, under every scheduler, for every DoP configuration. The
// kernel is 2DCONV, whose AppleM runs were where the fluid model's
// map-ordered sums used to differ in their last bits call to call.
func TestSimulateBitIdenticalRunToRun(t *testing.T) {
	ws, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	var conv *workloads.Workload
	for _, w := range ws {
		if strings.HasPrefix(w.Name, "2DCONV") {
			conv = w
		}
	}
	if conv == nil {
		t.Fatal("2DCONV not among the real workloads")
	}
	e, _, _ := newWorkloadExecutor(t, conv)
	km, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sim.Zoo() {
		for _, dist := range sim.Distributions() {
			for _, cfg := range m.Configs() {
				opts := sim.SimOptions{CPUShare: 0.4}
				first, err := sim.Simulate(m, km, cfg, dist, opts)
				if err != nil {
					t.Fatalf("%s/%s %+v: %v", m.Name, dist, cfg, err)
				}
				for rep := 0; rep < 10; rep++ {
					again, err := sim.Simulate(m, km, cfg, dist, opts)
					if err != nil {
						t.Fatalf("%s/%s %+v: %v", m.Name, dist, cfg, err)
					}
					if *again != *first {
						t.Fatalf("%s/%s %+v: repeat %d differs:\n first %+v\n again %+v",
							m.Name, dist, cfg, rep, *first, *again)
					}
				}
			}
		}
	}
}
