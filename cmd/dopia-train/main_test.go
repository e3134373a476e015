package main

import (
	"path/filepath"
	"testing"

	"dopia/internal/core"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestSavedModelIsTheBootstrapModel: the file -save-model writes loads
// back as the model a tool trains at start-up, bit for bit, on every
// training vector of DefaultTrainingSet and on the real kernels at a size
// the set does not hold.
func TestSavedModelIsTheBootstrapModel(t *testing.T) {
	for _, m := range []*sim.Machine{sim.Kaveri(), sim.Skylake()} {
		path := filepath.Join(t.TempDir(), "dt.json")
		if err := saveDefaultModel(m, path); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.BootstrapModel(m, "DT", path)
		if err != nil {
			t.Fatal(err)
		}
		trained, err := core.BootstrapModel(m, "DT", "")
		if err != nil {
			t.Fatal(err)
		}
		probe, err := core.DefaultTrainingSet.Workloads()
		if err != nil {
			t.Fatal(err)
		}
		unseen, err := workloads.RealWorkloads(128, 64)
		if err != nil {
			t.Fatal(err)
		}
		evals, err := core.EvaluateAll(m, append(probe, unseen...), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.BuildDataset(m, evals).Samples {
			if a, b := trained.Predict(s.X), loaded.Predict(s.X); a != b {
				t.Fatalf("%s: the saved model predicts %v where BootstrapModel's predicts %v", m.Name, b, a)
			}
		}
	}
}
