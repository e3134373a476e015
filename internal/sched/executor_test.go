package sched

import (
	"testing"

	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// newWorkloadExecutor builds an executor for a workload with its malleable
// transform, plus a reference instance executed directly.
func newWorkloadExecutor(t *testing.T, w *workloads.Workload) (*Executor, *workloads.Instance, *workloads.Instance) {
	t.Helper()
	k := freshKernel(t, w)
	mall, err := transform.MalleableGPU(k, w.WorkDim)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(sim.Kaveri(), k, mall.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind(inst.Args...); err != nil {
		t.Fatal(err)
	}
	if err := e.Launch(inst.ND); err != nil {
		t.Fatal(err)
	}

	// Reference: direct full interpretation of the original kernel.
	ref, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Bind(ref.Args...); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ref.ND); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	return e, inst, ref
}

func checkOutputs(t *testing.T, name string, inst, ref *workloads.Instance) {
	t.Helper()
	for _, oi := range ref.OutputArgs {
		if !inst.Args[oi].Buf.Equal(ref.Args[oi].Buf) {
			t.Fatalf("%s: co-executed output arg %d differs from reference", name, oi)
		}
	}
}

func TestFunctionalCoExecution1D(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	// GESUMMV (index 8) is 1-D with a single output.
	e, inst, ref := newWorkloadExecutor(t, w[8])
	cfg := sim.Config{CPUCores: 3, GPUFrac: 0.375}
	res, err := e.Run(cfg, RunOptions{Dist: sim.Dynamic, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WGsCPU == 0 || res.WGsGPU == 0 {
		t.Errorf("expected both devices to process work: cpu=%d gpu=%d", res.WGsCPU, res.WGsGPU)
	}
	checkOutputs(t, w[8].Name, inst, ref)
}

func TestFunctionalCoExecution2D(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	// 2DCONV (index 0) is 2-D.
	e, inst, ref := newWorkloadExecutor(t, w[0])
	cfg := sim.Config{CPUCores: 2, GPUFrac: 0.5}
	res, err := e.Run(cfg, RunOptions{Dist: sim.Dynamic, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WGsCPU+res.WGsGPU == 0 {
		t.Fatal("no work executed")
	}
	checkOutputs(t, w[0].Name, inst, ref)
}

func TestFunctionalStaticSplit(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	e, inst, ref := newWorkloadExecutor(t, w[8])
	cfg := sim.Kaveri().AllResources()
	if _, err := e.Run(cfg, RunOptions{Dist: sim.Static, CPUShare: 0.45, Functional: true}); err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, w[8].Name, inst, ref)
}

// TestRMWKernelProfileIsInvisible verifies that profiling a read-modify-
// write kernel (MVT1 accumulates into x1) does not corrupt the output.
func TestRMWKernelProfileIsInvisible(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	// MVT1 is index 9.
	e, inst, ref := newWorkloadExecutor(t, w[9])
	// Force model construction (profiles sampled WGs), then run.
	if _, err := e.Model(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(sim.Config{CPUCores: 4, GPUFrac: 0.25},
		RunOptions{Dist: sim.Dynamic, Functional: true}); err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, w[9].Name, inst, ref)
}

func TestBestStaticSweep(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	e, _, _ := newWorkloadExecutor(t, w[8])
	cfg := sim.Kaveri().AllResources()
	share, best, err := e.BestStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.05 || share > 0.95 {
		t.Errorf("best share %v out of sweep range", share)
	}
	// The best static split cannot be worse than an arbitrary one.
	other, err := e.Run(cfg, RunOptions{Dist: sim.Static, CPUShare: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if best.Time > other.Time+1e-12 {
		t.Errorf("best static (%v) worse than 10%% split (%v)", best.Time, other.Time)
	}
}

func TestModelCaching(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	e, _, _ := newWorkloadExecutor(t, w[8])
	m1, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || !e.Profiled() {
		t.Error("model not cached across calls")
	}
	// Re-binding invalidates the executor's model; an identical launch is
	// answered from the kernel's memo instead of a profile run.
	inst, _ := w[8].Setup()
	if err := e.Bind(inst.Args...); err != nil {
		t.Fatal(err)
	}
	if e.Profiled() {
		t.Error("Profiled survived a rebind")
	}
	if err := e.Launch(inst.ND); err != nil {
		t.Fatal(err)
	}
	m3, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 || e.Profiled() {
		t.Error("an identical relaunch re-profiled")
	}
	// Another geometry is another profile.
	if err := e.Launch(interp.ND1(inst.ND.Global[0], 32)); err != nil {
		t.Fatal(err)
	}
	m4, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m4 == m1 || !e.Profiled() {
		t.Error("model cache not invalidated by a new launch geometry")
	}
}

func TestRunErrors(t *testing.T) {
	w, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	k, err := w[8].CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(sim.Kaveri(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Model(); err == nil {
		t.Error("expected error for unbound executor")
	}
	inst, _ := w[8].Setup()
	if err := e.Bind(inst.Args...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Model(); err == nil {
		t.Error("expected error before Launch")
	}
	if err := e.Launch(interp.NDRange{Dims: 1, Global: [3]int{7, 1, 1}, Local: [3]int{2, 1, 1}}); err == nil {
		t.Error("expected error for indivisible ND range")
	}
}
