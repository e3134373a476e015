package sim

import (
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/interp"
)

// buildModelFromSource compiles, analyzes, and profile-runs a kernel to
// produce its KernelModel — the same pipeline Dopia's runtime uses.
func buildModelFromSource(t testing.TB, src, name string, args []interp.Arg,
	bufBytes map[int]int64, nd interp.NDRange, sampleWGs int) *KernelModel {
	t.Helper()
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernel(name)
	res, err := analysis.Analyze(k)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if err := ex.Bind(args...); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if _, err := ex.RunSampled(sampleWGs); err != nil {
		t.Fatalf("run: %v", err)
	}
	km, err := BuildModel(name, ex.Stats(), res, bufBytes, nd)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return km
}

// gesummvModel builds the paper's motivating CPU-affine kernel at the
// paper's problem size (N=16384) by profiling a scaled-down instance
// (N=2048, where the interpreter is fast) and rescaling the geometry:
// every per-work-group quantity of this kernel scales linearly in N.
func gesummvModel(t testing.TB, n, wg int) *KernelModel {
	t.Helper()
	small := 2048
	src := `__kernel void gesummv(__global float* A, __global float* B,
                        __global float* x, __global float* y,
                        float alpha, float beta, int N) {
        int i = get_global_id(0);
        if (i < N) {
            float tmp = 0.0f;
            float yv = 0.0f;
            for (int j = 0; j < N; j++) {
                tmp += A[i * N + j] * x[j];
                yv += B[i * N + j] * x[j];
            }
            y[i] = alpha * tmp + beta * yv;
        }
    }`
	A := interp.NewFloatBuffer(small * small)
	B := interp.NewFloatBuffer(small * small)
	x := interp.NewFloatBuffer(small)
	y := interp.NewFloatBuffer(small)
	args := []interp.Arg{
		interp.BufArg(A), interp.BufArg(B), interp.BufArg(x), interp.BufArg(y),
		interp.FloatArg(1.5), interp.FloatArg(0.5), interp.IntArg(int64(small)),
	}
	// The buffers' *modelled* sizes are those of the full problem.
	bufBytes := map[int]int64{
		0: int64(n) * int64(n) * 4,
		1: int64(n) * int64(n) * 4,
		2: int64(n) * 4,
		3: int64(n) * 4,
	}
	km := buildModelFromSource(t, src, "gesummv", args, bufBytes,
		interp.ND1(small, wg), 4)
	// Rescale: ops and accesses per WG scale by n/small; so do the number
	// of work-groups and the per-WI distinct footprints of streamed and
	// shared data.
	f := float64(n) / float64(small)
	km.NumWGs = n / wg
	km.AluIntPerWG *= f
	km.AluFloatPerWG *= f
	for i := range km.Sites {
		km.Sites[i].AccPerWG *= f
		km.Sites[i].DistinctPerWI *= f
	}
	return km
}

func TestGesummvShapeOnKaveri(t *testing.T) {
	m := Kaveri()
	km := gesummvModel(t, 16384, 256)

	run := func(cfg Config) *Result {
		r, err := Simulate(m, km, cfg, Dynamic, SimOptions{})
		if err != nil {
			t.Fatalf("simulate %+v: %v", cfg, err)
		}
		return r
	}
	cpuOnly := run(m.CPUOnly())
	gpuOnly := run(m.GPUOnly())
	all := run(m.AllResources())

	best, bestRes, _, err := Exhaustive(m, km)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("cpu=%.4gms gpu=%.4gms all=%.4gms best=%+v %.4gms",
		cpuOnly.Time*1e3, gpuOnly.Time*1e3, all.Time*1e3, best, bestRes.Time*1e3)

	// Paper, Figure 1: gesummv is CPU-affine; GPU-only is far worse than
	// CPU-only; using everything is worse than the best partial config.
	if gpuOnly.Time < 2*cpuOnly.Time {
		t.Errorf("GPU-only should be much slower than CPU-only: cpu=%v gpu=%v",
			cpuOnly.Time, gpuOnly.Time)
	}
	if bestRes.Time > cpuOnly.Time || bestRes.Time > all.Time {
		t.Errorf("exhaustive best (%v) must beat CPU-only (%v) and ALL (%v)",
			bestRes.Time, cpuOnly.Time, all.Time)
	}
	if best.CPUCores == 0 {
		t.Errorf("best config should use CPU cores, got %+v", best)
	}
	if best.GPUFrac <= 0 || best.GPUFrac >= 1 {
		t.Errorf("best config should use a partial GPU allocation, got %+v", best)
	}
	// ALL should beat GPU-only but lose to best (memory congestion).
	if all.Time > gpuOnly.Time {
		t.Errorf("ALL (%v) should not be slower than GPU-only (%v)", all.Time, gpuOnly.Time)
	}
}

// TestMemoryRequestsGrowWithGPUUtil reproduces the Figure 3(b) mechanism:
// with 4 CPU cores active, raising the GPU allocation beyond the cache
// knee increases total DRAM transactions.
func TestMemoryRequestsGrowWithGPUUtil(t *testing.T) {
	m := Kaveri()
	km := gesummvModel(t, 16384, 256)
	cfgLow := Config{CPUCores: 4, GPUFrac: 0.25}
	cfgHigh := Config{CPUCores: 4, GPUFrac: 1.0}
	low, err := Simulate(m, km, cfgLow, Dynamic, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Simulate(m, km, cfgHigh, Dynamic, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Normalize per GPU work-group to remove partitioning effects.
	lowPer := low.Transactions / float64(low.WGsGPU)
	highPer := high.Transactions / float64(high.WGsGPU)
	t.Logf("transactions per GPU WG: low=%.0f high=%.0f", lowPer, highPer)
	if highPer <= lowPer*1.2 {
		t.Errorf("full GPU allocation should thrash the L2: low=%v high=%v", lowPer, highPer)
	}
}

// streamModel builds a GPU-friendly, perfectly-coalesced streaming kernel
// (the 2DCONV/FDTD family): lane-continuous accesses, float-heavy.
func streamModel(t *testing.T) *KernelModel {
	src := `__kernel void stream(__global float* a, __global float* b, __global float* c, int n) {
        int i = get_global_id(0);
        if (i < n) {
            float v = a[i];
            float w = b[i];
            float acc = 0.0f;
            for (int j = 0; j < 24; j++) {
                acc = acc * 0.5f + v * w + (v + w) * (v - w) + sqrt(fabs(acc + v));
            }
            c[i] = acc;
        }
    }`
	n := 1 << 20
	a := interp.NewFloatBuffer(1 << 14)
	b := interp.NewFloatBuffer(1 << 14)
	c := interp.NewFloatBuffer(1 << 14)
	km := buildModelFromSource(t, src, "stream",
		[]interp.Arg{interp.BufArg(a), interp.BufArg(b), interp.BufArg(c), interp.IntArg(1 << 14)},
		map[int]int64{0: int64(n) * 4, 1: int64(n) * 4, 2: int64(n) * 4},
		interp.ND1(1<<14, 256), 4)
	km.NumWGs = n / 256
	return km
}

func TestStreamingKernelIsGPUAffine(t *testing.T) {
	m := Kaveri()
	km := streamModel(t)
	cpuOnly, err := Simulate(m, km, m.CPUOnly(), Dynamic, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gpuOnly, err := Simulate(m, km, m.GPUOnly(), Dynamic, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream: cpu=%.4gms gpu=%.4gms", cpuOnly.Time*1e3, gpuOnly.Time*1e3)
	if gpuOnly.Time >= cpuOnly.Time {
		t.Errorf("coalesced float kernel should be GPU-affine: cpu=%v gpu=%v",
			cpuOnly.Time, gpuOnly.Time)
	}
}

func TestDynamicBalancesLoad(t *testing.T) {
	m := Kaveri()
	km := streamModel(t)
	cfg := m.AllResources()
	dyn, err := Simulate(m, km, cfg, Dynamic, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.WGsCPU == 0 || dyn.WGsGPU == 0 {
		t.Errorf("dynamic distribution should use both devices: cpu=%d gpu=%d",
			dyn.WGsCPU, dyn.WGsGPU)
	}
	// A deliberately bad static split (90% to the CPU of a GPU-affine
	// kernel) must lose to dynamic distribution.
	bad, err := Simulate(m, km, cfg, Static, SimOptions{CPUShare: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Time >= bad.Time {
		t.Errorf("dynamic (%v) should beat bad static split (%v)", dyn.Time, bad.Time)
	}
}

func TestConfigSpace(t *testing.T) {
	for _, m := range []*Machine{Kaveri(), Skylake()} {
		cfgs := m.Configs()
		if len(cfgs) != 44 {
			t.Errorf("%s: %d configs, want 44", m.Name, len(cfgs))
		}
		for _, c := range cfgs {
			if !c.Valid() {
				t.Errorf("%s: invalid config in space: %+v", m.Name, c)
			}
		}
	}
	if mod, alloc := DopParams(0.375); mod != 8 || alloc != 3 {
		t.Errorf("DopParams(0.375) = %d,%d, want 8,3", mod, alloc)
	}
	if mod, alloc := DopParams(1.0); mod != 8 || alloc != 8 {
		t.Errorf("DopParams(1.0) = %d,%d", mod, alloc)
	}
	if _, alloc := DopParams(0.01); alloc != 1 {
		t.Errorf("tiny fraction must keep one lane active, got %d", alloc)
	}
}

func TestSimulateErrors(t *testing.T) {
	m := Kaveri()
	km := &KernelModel{Name: "x", NumWGs: 4, WGSize: 64}
	if _, err := Simulate(m, km, Config{}, Dynamic, SimOptions{}); err == nil {
		t.Error("expected error for all-idle config")
	}
	if _, err := Simulate(m, &KernelModel{}, m.CPUOnly(), Dynamic, SimOptions{}); err == nil {
		t.Error("expected error for empty kernel model")
	}
}
