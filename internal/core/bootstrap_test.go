package core

import (
	"path/filepath"
	"strings"
	"testing"

	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestTrainingSet pins the training-set contract every tool relies on:
// exactly Synthetic workloads, spread over the whole grid (not a prefix),
// deterministic; the whole grid for 0 or too big a count and none for a
// negative one; then the real kernels at each size, work-group 64 first.
func TestTrainingSet(t *testing.T) {
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, len(grid), len(grid) + 1} {
		got, err := TrainingSet{Synthetic: n}.Workloads()
		if err != nil || len(got) != len(grid) {
			t.Errorf("Synthetic %d: %d workloads (err %v), want the whole grid of %d", n, len(got), err, len(grid))
		}
	}
	for _, n := range []int{1, 7, 48, len(grid) - 1} {
		got, err := TrainingSet{Synthetic: n}.Workloads()
		if err != nil || len(got) != n {
			t.Fatalf("Synthetic %d: %d workloads (err %v)", n, len(got), err)
		}
		stride := len(grid) / n
		for i, w := range got {
			if w.Name != grid[i*stride].Name {
				t.Fatalf("Synthetic %d: slot %d is %s, want grid[%d] = %s", n, i, w.Name, i*stride, grid[i*stride].Name)
			}
		}
	}
	got, err := TrainingSet{Synthetic: -1, RealN: []int{256, 128}}.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	var want []*workloads.Workload
	for _, n := range []int{256, 128} {
		for _, wg := range []int{64, 256} {
			ws, err := workloads.RealWorkloads(n, wg)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ws...)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("real-only set has %d workloads, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("real-only set slot %d is %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
}

// TestDefaultTrainingSetCoversEveryPair: the default set's synthetic
// workloads cover every (size, work-group size) pair of the synthetic
// grid, and after them come all fourteen real kernels at every RealN size,
// each at work-group 64 and 256 (SYR2K floors its size, so n = 1024, 256
// and 64 are one SYR2K workload, held three times). Size and work-group
// size are the grid's two innermost loops, so a count whose stride is a
// multiple of 2 or 3 (120 gives 10) sees only some of the pairs.
func TestDefaultTrainingSetCoversEveryPair(t *testing.T) {
	pair := func(w *workloads.Workload) string {
		f := strings.Split(w.Name, ".")
		return strings.Join(f[len(f)-2:], ".")
	}
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]bool{}
	for _, w := range grid {
		all[pair(w)] = true
	}
	set, err := DefaultTrainingSet.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	synth := DefaultTrainingSet.Synthetic
	if len(set) < synth {
		t.Fatalf("the default set has %d workloads, fewer than its %d synthetic ones", len(set), synth)
	}
	seen := map[string]bool{}
	for _, w := range set[:synth] {
		seen[pair(w)] = true
	}
	if len(all) != 6 || len(seen) != len(all) {
		t.Errorf("the default set's synthetic workloads cover %d of the grid's %d (size, work-group) pairs: %v", len(seen), len(all), seen)
	}

	reals := map[string]bool{}
	for _, w := range set[synth:] {
		reals[w.Name] = true
	}
	if len(DefaultTrainingSet.RealN) == 0 {
		t.Error("the default set holds no real kernel")
	}
	want := 0
	for _, n := range DefaultTrainingSet.RealN {
		for _, wg := range []int{64, 256} {
			for _, d := range workloads.RealDescs() {
				w, err := d.Build(n, wg)
				if err != nil {
					t.Fatal(err)
				}
				want++
				if !reals[w.Name] {
					t.Errorf("the default set lacks %s at n=%d, work-group %d (%s)", d.Name, n, wg, w.Name)
				}
			}
		}
	}
	if len(set[synth:]) != want {
		t.Errorf("the default set holds %d real workloads, want %d: fourteen kernels x %d sizes x 2 work-groups",
			len(set[synth:]), want, len(DefaultTrainingSet.RealN))
	}
}

// TestBootstrapModel covers the ways a tool gets its model: trained
// (deterministically, by family name, on DefaultTrainingSet), loaded from
// a file, none (the ALL heuristic), or refused for an unknown family.
func TestBootstrapModel(t *testing.T) {
	m := sim.Kaveri()
	trained, err := BootstrapModel(m, "DT", "")
	if err != nil {
		t.Fatal(err)
	}
	if trained.Name() != "DT" {
		t.Errorf("trained model is %q, want DT", trained.Name())
	}
	again, err := BootstrapModel(m, "DT", "")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := TrainingSet{Synthetic: 6}.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	evals, err := EvaluateAll(m, probe, 0)
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
	// A named file wins over the family, which is not even checked.
	loaded, err := BootstrapModel(m, "no-such-family", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range BuildDataset(m, evals).Samples {
		if a, b := trained.Predict(s.X), loaded.Predict(s.X); a != b {
			t.Fatalf("loaded model predicts %v, trained %v", b, a)
		}
	}

	if none, err := BootstrapModel(m, "none", ""); none != nil || err != nil {
		t.Errorf("family none gave model %v, error %v; want no model and no error", none, err)
	}
	if _, err := BootstrapModel(m, "no-such-family", ""); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := BootstrapModel(m, "DT", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing model file accepted")
	}
}
