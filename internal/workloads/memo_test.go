package workloads_test

import (
	"testing"

	"dopia"
	"dopia/internal/core"
	"dopia/internal/lru"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestCharacterizeDrawsEachInputOnce characterizes the benchmark's
// training slice (102 workloads, every twelfth synthetic one, as
// benchmark/kernels.go's trainingSlice(12) takes them) twice on one
// goroutine, starting from an empty input memo. The first pass misses each input key exactly
// once and the second generates nothing. Every twelfth workload has size
// 16384 (size and work-group size are the grid's innermost loops), so
// the slice draws 7 distinct arrays: 2 element kinds × seeds 11, 18 and
// 97, plus the index array D.
func TestCharacterizeDrawsEachInputOnce(t *testing.T) {
	grid, err := dopia.SyntheticWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var slice []*workloads.Workload
	for i := 0; i < len(grid); i += 12 {
		slice = append(slice, grid[i])
	}
	workloads.PurgeInputMemo()
	start := workloads.InputMemoStats()
	pass := func() lru.Stats {
		t.Helper()
		if _, err := core.EvaluateAll(sim.Kaveri(), slice, 1); err != nil {
			t.Fatal(err)
		}
		return workloads.InputMemoStats()
	}
	first := pass()
	if misses := first.Misses - start.Misses; misses != 7 || first.Entries != 7 {
		t.Errorf("first pass: %d misses, %d entries; want 7 of each", misses, first.Entries)
	}
	if first.Evictions != start.Evictions {
		t.Errorf("first pass evicted %d inputs", first.Evictions-start.Evictions)
	}
	second := pass()
	if misses := second.Misses - first.Misses; misses != 0 {
		t.Errorf("second pass: %d misses, want 0", misses)
	}
	if got, want := second.Hits-first.Hits, first.Hits-start.Hits+first.Misses-start.Misses; got != want {
		t.Errorf("second pass: %d hits, want %d (every lookup of the first pass)", got, want)
	}
}
