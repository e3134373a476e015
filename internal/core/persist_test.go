package core

import (
	"path/filepath"
	"testing"

	"dopia/internal/sim"
)

func TestEvalPersistence(t *testing.T) {
	m := sim.Kaveri()
	grid := smallGrid(t)[:3]
	evals, err := EvaluateAll(m, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "evals.json.gz")
	if err := SaveEvals(path, m.Name, evals); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEvals(path, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evals) {
		t.Fatalf("loaded %d evals, want %d", len(back), len(evals))
	}
	for i := range evals {
		if back[i].Name != evals[i].Name ||
			back[i].Best != evals[i].Best ||
			back[i].BestTime != evals[i].BestTime ||
			back[i].Base != evals[i].Base ||
			len(back[i].Times) != len(evals[i].Times) {
			t.Fatalf("eval %d changed across round trip", i)
		}
	}
	// Machine mismatch is rejected.
	if _, err := LoadEvals(path, "Skylake"); err == nil {
		t.Error("expected machine-mismatch error")
	}
	// Unreadable/garbage files error cleanly.
	if _, err := LoadEvals(filepath.Join(t.TempDir(), "missing.gz"), m.Name); err == nil {
		t.Error("expected missing-file error")
	}
}

func TestTrainerByName(t *testing.T) {
	for _, name := range []string{"LIN", "SVR", "DT", "RF"} {
		tr, err := TrainerByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tr.Name() != name {
			t.Errorf("TrainerByName(%s).Name() = %s", name, tr.Name())
		}
	}
	if _, err := TrainerByName("XGBOOST"); err == nil {
		t.Error("expected error for unknown trainer")
	}
	if len(Trainers()) != 4 {
		t.Errorf("%d trainers, want the paper's 4", len(Trainers()))
	}
}

func TestWorkloadEvalAccessors(t *testing.T) {
	we := &WorkloadEval{
		Name:     "x",
		BestTime: 1,
		Best:     sim.Config{CPUCores: 2},
		Times: []ConfigTime{
			{Config: sim.Config{CPUCores: 2}, Time: 1},
			{Config: sim.Config{CPUCores: 4}, Time: 2},
		},
	}
	if we.Perf(sim.Config{CPUCores: 4}) != 0.5 {
		t.Error("Perf wrong")
	}
	if we.Perf(sim.Config{CPUCores: 9}) != 0 {
		t.Error("unknown config must have zero perf")
	}
	if we.Time(sim.Config{CPUCores: 2}) != 1 {
		t.Error("Time wrong")
	}
	if t0 := we.Time(sim.Config{CPUCores: 9}); t0 == t0 && t0 < 1e300 {
		t.Error("unknown config must have infinite time")
	}
}
