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

// decideFromEval is Framework.Decide from a prebuilt base feature vector.
func decideFromEval(fw *Framework, base ml.Features) sim.Config {
	best, _, _, err := SelectConfig(fw.Machine, fw.Model, base)
	if err != nil {
		panic(err)
	}
	return best
}

// orderProbe scores a configuration by the order it is asked about,
// recording the (CPU, GPU) utilization of each question.
type orderProbe struct{ seen [][2]float64 }

func (p *orderProbe) Name() string { return "probe" }
func (p *orderProbe) Predict(x ml.Features) float64 {
	p.seen = append(p.seen, [2]float64{x[ml.FCPUUtil], x[ml.FGPUUtil]})
	return float64(len(p.seen) % 7)
}

// TestSelectConfigScansConfigsInOrder holds SelectConfig to the argmax
// over m.Configs(), in that order, first maximum winning.
func TestSelectConfigScansConfigsInOrder(t *testing.T) {
	for _, m := range sim.Zoo() {
		p := &orderProbe{}
		best, bestV, n, err := SelectConfig(m, p, ml.Features{})
		if err != nil {
			t.Fatal(err)
		}
		cfgs := m.Configs()
		if n != len(cfgs) || len(p.seen) != len(cfgs) {
			t.Fatalf("%s: scored %d (asked %d), want %d", m.Name, n, len(p.seen), len(cfgs))
		}
		for i, cfg := range cfgs {
			if want := [2]float64{m.CPUUtil(cfg), cfg.GPUFrac}; p.seen[i] != want {
				t.Fatalf("%s: question %d was %v, want %v", m.Name, i, p.seen[i], want)
			}
		}
		if best != cfgs[5] || bestV != 6 {
			t.Errorf("%s: argmax %+v (%v), want the first 6 at %+v", m.Name, best, bestV, cfgs[5])
		}
	}
}

// TestDecideAllocatesNothing holds the per-launch decision to zero heap
// allocations with the deployed model family.
func TestDecideAllocatesNothing(t *testing.T) {
	m := sim.Kaveri()
	grid := smallGrid(t)[:4]
	evals, err := EvaluateAll(m, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(m, ml.TreeTrainer{}, evals)
	if err != nil {
		t.Fatal(err)
	}
	fw := New(m, model)
	k, err := grid[0].CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Analysis(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := grid[0].Views()
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { fw.decide(res, inst.ND) }); a != 0 {
		t.Errorf("decide allocates %v times per call, want 0", a)
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
