package core

import (
	"path/filepath"
	"testing"

	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestSyntheticSlice pins the training-slice contract every tool relies
// on: exactly limit workloads, spread over the whole grid (not a
// prefix), deterministic, and the whole grid for limit <= 0 or too big.
func TestSyntheticSlice(t *testing.T) {
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, -3, len(grid), len(grid) + 1} {
		got, err := SyntheticSlice(limit)
		if err != nil || len(got) != len(grid) {
			t.Errorf("limit %d: %d workloads (err %v), want the whole grid of %d", limit, len(got), err, len(grid))
		}
	}
	for _, limit := range []int{1, 7, 48, len(grid) - 1} {
		got, err := SyntheticSlice(limit)
		if err != nil || len(got) != limit {
			t.Fatalf("limit %d: %d workloads (err %v)", limit, len(got), err)
		}
		stride := len(grid) / limit
		for i, w := range got {
			if w.Name != grid[i*stride].Name {
				t.Fatalf("limit %d: slot %d is %s, want grid[%d] = %s", limit, i, w.Name, i*stride, grid[i*stride].Name)
			}
		}
	}
}

// TestBootstrapModel covers the three ways a tool gets its model: trained
// (deterministically, by family name), loaded from a file, or refused for
// an unknown family.
func TestBootstrapModel(t *testing.T) {
	m := sim.Kaveri()
	trained, err := BootstrapModel(m, "DT", "", 6)
	if err != nil {
		t.Fatal(err)
	}
	if trained.Name() != "DT" {
		t.Errorf("trained model is %q, want DT", trained.Name())
	}
	again, err := BootstrapModel(m, "DT", "", 6)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := SyntheticSlice(6)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := EvaluateAll(m, slice, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range BuildDataset(m, evals).Samples {
		if a, b := trained.Predict(s.X), again.Predict(s.X); a != b {
			t.Fatalf("two bootstraps of the same arguments disagree: %v vs %v", a, b)
		}
	}

	path := filepath.Join(t.TempDir(), "model.json")
	if err := ml.SaveModelFile(path, trained); err != nil {
		t.Fatal(err)
	}
	// A named file wins over family and limit, which are not even checked.
	loaded, err := BootstrapModel(m, "no-such-family", path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range BuildDataset(m, evals).Samples {
		if a, b := trained.Predict(s.X), loaded.Predict(s.X); a != b {
			t.Fatalf("loaded model predicts %v, trained %v", b, a)
		}
	}

	if _, err := BootstrapModel(m, "no-such-family", "", 6); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := BootstrapModel(m, "DT", filepath.Join(t.TempDir(), "missing.json"), 6); err == nil {
		t.Error("missing model file accepted")
	}
}
