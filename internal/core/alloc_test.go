package core

import (
	"strings"
	"testing"

	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestMemoHitCharacterizationAllocs holds a characterization whose model
// the kernel's memo holds, on Kaveri at n=256, to the allocations counted
// when the simulator's scratch became pooled and the sweep ran on the
// caller (661 for GESUMMV and 689 for 2DCONV before): its 44 Results, the
// sweep's three slices and the WorkloadEval, and the executor and views
// it binds. The race detector makes sync.Pool drop objects at random, so
// race builds skip the count.
func TestMemoHitCharacterizationAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	real, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := map[string]float64{"GESUMMV": 73, "2DCONV": 69}
	m := sim.Kaveri()
	seen := 0
	for _, w := range real {
		base, _, _ := strings.Cut(w.Name, ".")
		c, ok := ceiling[base]
		if !ok {
			continue
		}
		seen++
		if _, err := EvaluateWorkload(m, w); err != nil { // fills the model memo
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := EvaluateWorkload(m, w); err != nil {
				t.Fatal(err)
			}
		})
		if got > c {
			t.Errorf("%s: %v allocations per memo-hit characterization, ceiling %v", w.Name, got, c)
		}
	}
	if seen != len(ceiling) {
		t.Fatalf("found %d of the %d workloads", seen, len(ceiling))
	}
}
