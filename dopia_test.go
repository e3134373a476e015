package dopia_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dopia"
)

// TestPublicAPIFlow exercises the documented end-to-end flow of the
// public facade: train, attach, build, enqueue, verify.
func TestPublicAPIFlow(t *testing.T) {
	machine := dopia.Kaveri()
	platform := dopia.NewPlatform(machine)
	ctx := platform.CreateContext()

	grid, err := dopia.SyntheticWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 1224 {
		t.Fatalf("synthetic grid has %d workloads, want 1224", len(grid))
	}
	train, err := dopia.DefaultTrainingSet.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	model, err := dopia.TrainDefaultModel(machine, train)
	if err != nil {
		t.Fatal(err)
	}
	fw := dopia.NewFramework(machine, model)
	fw.Attach(ctx)

	prog := ctx.CreateProgramWithSource(`
__kernel void scale(__global float* a, __global float* b, float f, int n) {
    int i = get_global_id(0);
    if (i < n) { b[i] = a[i] * f; }
}`)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	kern, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	n := 512
	a := ctx.CreateFloatBuffer(n)
	b := ctx.CreateFloatBuffer(n)
	for i := range a.Float32() {
		a.Float32()[i] = float32(i)
	}
	for i, v := range []any{a, b, float32(2.5), n} {
		if err := kern.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	q := ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
	if err := q.EnqueueNDRangeKernel(kern, dopia.ND1(n, 64)); err != nil {
		t.Fatal(err)
	}
	if q.SimTime <= 0 || q.LastResult == nil {
		t.Fatal("launch not accounted by Dopia")
	}
	for i := 0; i < n; i++ {
		if b.Float32()[i] != float32(i)*2.5 {
			t.Fatalf("b[%d] = %v", i, b.Float32()[i])
		}
	}
}

// TestPublicFailOpen exercises the fail-open surface of the facade: a
// corrupt model file yields a usable framework, a kernel the malleable
// transform rejects still executes correctly, and every degradation is
// observable through the re-exported FallbackStats.
func TestPublicFailOpen(t *testing.T) {
	machine := dopia.Kaveri()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(`{"family":"DT","data":{"nodes":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	fw, err := dopia.NewFrameworkFromModelFile(machine, path)
	if err == nil {
		t.Fatal("corrupt model file accepted")
	}
	if !errors.Is(err, dopia.ErrModelInvalid) {
		t.Errorf("load error not classified as ErrModelInvalid: %v", err)
	}
	if dopia.FailureStageOf(err) != dopia.StageModelLoad {
		t.Errorf("FailureStageOf = %v, want %v", dopia.FailureStageOf(err), dopia.StageModelLoad)
	}
	if fw == nil {
		t.Fatal("NewFrameworkFromModelFile failed closed")
	}

	platform := dopia.NewPlatform(machine)
	ctx := platform.CreateContext()
	fw.Attach(ctx)
	// A top-level barrier defeats the malleable transform; the launch must
	// still complete via the fallback ladder.
	prog := ctx.CreateProgramWithSource(`
__kernel void shift(__global float* a, __global float* b, int n) {
    __local float tile[64];
    int l = get_local_id(0);
    tile[l] = a[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    b[get_global_id(0)] = tile[63 - l] + 1.0f;
}`)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	kern, err := prog.CreateKernel("shift")
	if err != nil {
		t.Fatal(err)
	}
	n := 128
	a := ctx.CreateFloatBuffer(n)
	b := ctx.CreateFloatBuffer(n)
	for i := range a.Float32() {
		a.Float32()[i] = float32(i)
	}
	for i, v := range []any{a, b, n} {
		if err := kern.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	q := ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
	if err := q.EnqueueNDRangeKernel(kern, dopia.ND1(n, 64)); err != nil {
		t.Fatalf("barrier kernel failed closed: %v", err)
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("Finish latched an error for a recovered launch: %v", err)
	}
	for i := 0; i < n; i++ {
		base := (i / 64) * 64
		want := float32(base+63-(i-base)) + 1
		if b.Float32()[i] != want {
			t.Fatalf("b[%d] = %v, want %v", i, b.Float32()[i], want)
		}
	}
	snap := fw.Stats.Snapshot()
	if snap.ModelDiscards != 1 {
		t.Errorf("model-load failure not recorded: %s", snap)
	}
	if snap.Degradations() != 1 {
		t.Errorf("barrier-kernel degradation not recorded: %s", snap)
	}
	if qs := q.Fallback.Snapshot(); qs.Degradations() != 1 {
		t.Errorf("per-queue degradation not recorded: %s", qs)
	}
	if dopia.FailureStageOf(errors.New("plain")) != dopia.StageUnknown {
		t.Error("unclassified error must map to StageUnknown")
	}
}

// TestPublicCharacterize exercises the oracle helper.
func TestPublicCharacterize(t *testing.T) {
	machine := dopia.Skylake()
	ws, err := dopia.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := dopia.Characterize(machine, ws[8])
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Times) != 44 || ch.BestTime <= 0 {
		t.Fatalf("characterization incomplete: %d times", len(ch.Times))
	}
	if p := ch.Perf(machine.CPUOnly()); p <= 0 || p > 1 {
		t.Errorf("CPU-only perf %v out of range", p)
	}
}

func TestMachinePresets(t *testing.T) {
	k, s := dopia.Kaveri(), dopia.Skylake()
	if k.TotalPEs() != 512 {
		t.Errorf("Kaveri PEs = %d, want 512", k.TotalPEs())
	}
	if s.TotalPEs() != 768 {
		t.Errorf("Skylake PEs = %d, want 768", s.TotalPEs())
	}
	if len(k.Configs()) != 44 || len(s.Configs()) != 44 {
		t.Error("DoP spaces must have 44 configurations (Table 3)")
	}
}
