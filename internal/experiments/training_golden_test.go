package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"dopia"
	"dopia/internal/core"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// trainingProbe is the fixed input every training row is read on: the 44
// configuration feature vectors of each of the fourteen real kernels at
// n=256, work-group 256.
func trainingProbe(t *testing.T, m *sim.Machine) []ml.Features {
	t.Helper()
	ws, err := workloads.RealWorkloads(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := core.EvaluateAll(m, ws, 0)
	if err != nil {
		t.Fatal(err)
	}
	var probe []ml.Features
	for _, we := range evals {
		for _, cfg := range m.Configs() {
			probe = append(probe, core.WithConfig(we.Base, m, cfg))
		}
	}
	return probe
}

// predictionDigest hashes the bits of a model's prediction on every
// probe vector.
func predictionDigest(model ml.Model, probe []ml.Features) string {
	h := sha256.New()
	for _, x := range probe {
		fmt.Fprintf(h, "%x\n", math.Float64bits(model.Predict(x)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selectionDigest hashes what each selection chose and the bits of its
// normalized performance; inference time is wall time and stays out.
func selectionDigest(sel []Selection) string {
	h := sha256.New()
	for _, s := range sel {
		fmt.Fprintf(h, "%s %v %x\n", s.Workload, s.Chosen, math.Float64bits(s.Perf))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingGolden pins what every model-building path trains on, as one
// SHA-256 per path: over the predictions on a fixed probe of the
// command-line bootstrap (DefaultTrainingSet) and of the facade's
// TrainDefaultModel on the benchmark's 102-workload slice (every twelfth
// synthetic workload), on every zoo machine (Kaveri's rows carry no
// machine suffix); and over the selections of Fig. 13's
// leave-one-family-out models and of Fig. 10's cross-validation folds at
// tinySuite scale on Kaveri, for all four model families. A change to
// which workloads a path characterizes, to the order its samples reach
// the trainer, or to the tree a DT fit grows from them shows up here.
func TestTrainingGolden(t *testing.T) {
	const golden = "testdata/training.golden"
	// The benchmark's slice, built as benchmark/kernels.go's
	// trainingSlice(12) builds it: every twelfth synthetic workload.
	grid, err := dopia.SyntheticWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var slice []*workloads.Workload
	for i := 0; i < len(grid); i += 12 {
		slice = append(slice, grid[i])
	}
	var b strings.Builder
	for _, m := range sim.Zoo() {
		suffix := ""
		if m.Name != sim.Kaveri().Name {
			suffix = "/" + m.Name
		}
		probe := trainingProbe(t, m)
		model, err := core.BootstrapModel(m, "DT", "")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "bootstrap-DT%s %s\n", suffix, predictionDigest(model, probe))
		model, err = dopia.TrainDefaultModel(m, slice)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "default-model-102%s %s\n", suffix, predictionDigest(model, probe))
	}

	m := sim.Kaveri()
	s := sharedTinySuite()
	loo, err := s.looSelections(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range core.Trainers() {
		fmt.Fprintf(&b, "fig13-%s %s\n", tr.Name(), selectionDigest(loo[i]))
		cv, err := s.crossVal(m, tr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "fig10-%s %s\n", tr.Name(), selectionDigest(cv))
	}
	checkGolden(t, golden, b.String())
}
