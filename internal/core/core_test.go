package core

import (
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// smallGrid returns a reduced synthetic grid for fast tests.
func smallGrid(t *testing.T) []*workloads.Workload {
	t.Helper()
	var out []*workloads.Workload
	for i, pat := range workloads.TablePatterns() {
		s := pat
		s.WorkDim = 1 + i%2
		s.DType = clc.KindFloat
		s.Gamma = 2 * (i % 3)
		s.Size = 16384
		s.WGSize = 64
		w, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestEvaluateWorkloadCoversConfigSpace(t *testing.T) {
	m := sim.Kaveri()
	w := smallGrid(t)[0]
	we, err := EvaluateWorkload(m, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(we.Times) != 44 {
		t.Fatalf("%d config times, want 44", len(we.Times))
	}
	if we.BestTime <= 0 {
		t.Fatal("no best time")
	}
	if we.Perf(we.Best) != 1 {
		t.Errorf("best config perf = %v, want 1", we.Perf(we.Best))
	}
	for _, ct := range we.Times {
		if p := we.Perf(ct.Config); p <= 0 || p > 1+1e-9 {
			t.Errorf("perf(%+v) = %v out of (0,1]", ct.Config, p)
		}
	}
	// Base features should reflect the kernel's static analysis.
	if we.Base[ml.FGlobalSize] <= 0 || we.Base[ml.FLocalSize] != 64 {
		t.Errorf("geometry features wrong: %v", we.Base)
	}
}

func TestTrainAndDecideEndToEnd(t *testing.T) {
	m := sim.Kaveri()
	grid := smallGrid(t)
	evals, err := EvaluateAll(m, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := BuildDataset(m, evals)
	if ds.Len() != len(grid)*44 {
		t.Fatalf("dataset has %d samples, want %d", ds.Len(), len(grid)*44)
	}
	model, err := (ml.TreeTrainer{}).Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	fw := New(m, model)

	// Dopia's chosen configs must on average be close to the oracle and
	// beat the fixed baselines on the training workloads.
	var dopia, cpu, gpu, all float64
	for _, we := range evals {
		var base ml.Features = we.Base
		dec := decideFromEval(fw, base)
		dopia += we.Perf(dec)
		cpu += we.Perf(m.CPUOnly())
		gpu += we.Perf(m.GPUOnly())
		all += we.Perf(m.AllResources())
	}
	n := float64(len(evals))
	dopia, cpu, gpu, all = dopia/n, cpu/n, gpu/n, all/n
	t.Logf("mean normalized perf: dopia=%.3f cpu=%.3f gpu=%.3f all=%.3f", dopia, cpu, gpu, all)
	if dopia < cpu || dopia < gpu || dopia < all {
		t.Errorf("Dopia (%.3f) should beat fixed baselines (cpu=%.3f gpu=%.3f all=%.3f)",
			dopia, cpu, gpu, all)
	}
	if dopia < 0.8 {
		t.Errorf("Dopia in-sample performance %.3f too low", dopia)
	}
}

// decideFromEval mirrors Framework.Decide but starts from a prebuilt base
// feature vector.
func decideFromEval(fw *Framework, base ml.Features) sim.Config {
	var best sim.Config
	bestV := 0.0
	first := true
	for _, cfg := range fw.Machine.Configs() {
		v := fw.Model.Predict(WithConfig(base, fw.Machine, cfg))
		if first || v > bestV {
			best, bestV = cfg, v
			first = false
		}
	}
	return best
}

func TestFrameworkExecuteProducesCorrectOutput(t *testing.T) {
	m := sim.Kaveri()
	ws, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[8] // GESUMMV
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(m, nil) // no model: falls back to ALL, still co-executes

	inst, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	exec, err := fw.Execute(k, inst.Args, inst.ND)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Result.Time <= 0 {
		t.Error("no simulated time charged")
	}
	if exec.Decision.Config != m.AllResources() {
		t.Errorf("model-less decision = %+v, want ALL", exec.Decision.Config)
	}

	// Reference execution.
	ref, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	rex, err := interp.NewExec(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := rex.Bind(ref.Args...); err != nil {
		t.Fatal(err)
	}
	if err := rex.Launch(ref.ND); err != nil {
		t.Fatal(err)
	}
	if err := rex.Run(); err != nil {
		t.Fatal(err)
	}
	for _, oi := range ref.OutputArgs {
		if !inst.Args[oi].Buf.Equal(ref.Args[oi].Buf) {
			t.Fatalf("Dopia-managed output differs from reference at arg %d", oi)
		}
	}
}

func TestDecideChargesInferenceTime(t *testing.T) {
	m := sim.Kaveri()
	grid := smallGrid(t)[:4]
	evals, err := EvaluateAll(m, grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(m, ml.SVRTrainer{}, evals)
	if err != nil {
		t.Fatal(err)
	}
	fw := New(m, model)
	w := grid[0]
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Analysis(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := w.Setup()
	dec := fw.Decide(res, inst.ND)
	if dec.Evaluated != 44 {
		t.Errorf("evaluated %d configs, want 44", dec.Evaluated)
	}
	if dec.InferTime <= 0 {
		t.Error("inference time not measured")
	}
	if !dec.Config.Valid() {
		t.Errorf("invalid decision %+v", dec.Config)
	}
}

func TestMalleableCaching(t *testing.T) {
	m := sim.Kaveri()
	ws, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ws[8].CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(m, nil)
	r1, err := fw.Malleable(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fw.Malleable(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("malleable result not cached")
	}
	if _, err := fw.Malleable(k, 3); err == nil {
		t.Error("expected error for 3-D transform")
	}
	// Errors are cached too.
	if _, err := fw.Malleable(k, 3); err == nil {
		t.Error("expected cached error for 3-D transform")
	}
}
