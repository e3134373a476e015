// Benchmarks: one testing.B entry per table and figure of the paper's
// evaluation (Figures 1, 3, 9-13; Tables 5, 6), each exercising the same
// pipeline as the full regeneration in cmd/dopia-bench on a reduced
// workload census, plus micro-benchmarks of the load-bearing components
// (interpreter, simulator, analyzer, transformer, ML inference).
package dopia_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dopia"
	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/experiments"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sched"
	"dopia/internal/server"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// ---------------------------------------------------------------------------
// Shared fixtures

var fixtures struct {
	once  sync.Once
	err   error
	evals []*core.WorkloadEval // 40-workload synthetic slice on Kaveri
	ds    *ml.Dataset
	dt    ml.Model
}

func benchEvals(b *testing.B) ([]*core.WorkloadEval, *ml.Dataset, ml.Model) {
	b.Helper()
	fixtures.once.Do(func() {
		sub, err := core.TrainingSet{Synthetic: 40}.Workloads()
		if err != nil {
			fixtures.err = err
			return
		}
		fixtures.evals, fixtures.err = core.EvaluateAll(sim.Kaveri(), sub, 0)
		if fixtures.err != nil {
			return
		}
		fixtures.ds = core.BuildDataset(sim.Kaveri(), fixtures.evals)
		fixtures.dt, fixtures.err = core.Train(sim.Kaveri(), ml.TreeTrainer{}, fixtures.evals)
	})
	if fixtures.err != nil {
		b.Fatal(fixtures.err)
	}
	return fixtures.evals, fixtures.ds, fixtures.dt
}

func gesummvExecutor(b *testing.B, n int) *sched.Executor {
	b.Helper()
	ws, err := workloads.RealWorkloads(n, 256)
	if err != nil {
		b.Fatal(err)
	}
	w := ws[8] // GESUMMV
	k, err := w.CompileKernel()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := sched.NewExecutor(sim.Kaveri(), k, nil)
	if err != nil {
		b.Fatal(err)
	}
	ex.AssumeMalleable = true
	inst, err := w.Setup()
	if err != nil {
		b.Fatal(err)
	}
	if err := ex.Bind(inst.Args...); err != nil {
		b.Fatal(err)
	}
	if err := ex.Launch(inst.ND); err != nil {
		b.Fatal(err)
	}
	if _, err := ex.Model(); err != nil {
		b.Fatal(err)
	}
	return ex
}

// ---------------------------------------------------------------------------
// Figure 1: the full 44-configuration DoP sweep of Gesummv on Kaveri.

func BenchmarkFig1Heatmap(b *testing.B) {
	ex := gesummvExecutor(b, 512)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range m.Configs() {
			if _, err := ex.Run(cfg, sched.RunOptions{Dist: sim.Dynamic}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Figure 3: the GPU-utilization sweep at four CPU threads.

func BenchmarkFig3GPUUtil(b *testing.B) {
	ex := gesummvExecutor(b, 512)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range m.GPUSteps {
			cfg := sim.Config{CPUCores: m.CPU.Cores, GPUFrac: g}
			if _, err := ex.Run(cfg, sched.RunOptions{Dist: sim.Dynamic}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Figure 9: dynamic distribution vs the 19-split static sweep.

func BenchmarkFig9Distribution(b *testing.B) {
	ex := gesummvExecutor(b, 512)
	all := sim.Kaveri().AllResources()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ex.BestStatic(all); err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Run(all, sched.RunOptions{Dist: sim.Dynamic}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 10: cross-validated model comparison on the synthetic slice.

func BenchmarkFig10Models(b *testing.B) {
	evals, _, _ := benchEvals(b)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range core.Trainers() {
			if _, err := experiments.CrossValSelections(m, evals, tr, 4, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Table 5: exact-classification counting (Dopia DT cross-validation plus
// the fixed baselines).

func BenchmarkTable5Classification(b *testing.B) {
	evals, _, _ := benchEvals(b)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := experiments.CrossValSelections(m, evals, ml.TreeTrainer{}, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.ExactCount(sel)
		_ = experiments.ExactCount(experiments.FixedSelections(m, evals, m.CPUOnly()))
		_ = experiments.ExactCount(experiments.FixedSelections(m, evals, m.GPUOnly()))
		_ = experiments.ExactCount(experiments.FixedSelections(m, evals, m.AllResources()))
	}
}

// Figure 11: distance-error and normalized-performance distributions.

func BenchmarkFig11CrossVal(b *testing.B) {
	evals, _, _ := benchEvals(b)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := experiments.CrossValSelections(m, evals, ml.TreeTrainer{}, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Dists(sel)
		_ = experiments.Perfs(sel)
	}
}

// Figure 12 / Table 6: the constant-configuration performance table.

func BenchmarkFig12ConstantConfigs(b *testing.B) {
	evals, _, _ := benchEvals(b)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range m.Configs() {
			_ = experiments.Perfs(experiments.FixedSelections(m, evals, cfg))
		}
	}
}

func BenchmarkTable6BestConstant(b *testing.B) {
	evals, _, _ := benchEvals(b)
	m := sim.Kaveri()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestV := -1.0
		for _, cfg := range m.Configs() {
			var s float64
			sel := experiments.FixedSelections(m, evals, cfg)
			for _, x := range experiments.Perfs(sel) {
				s += x
			}
			if s > bestV {
				bestV = s
			}
		}
	}
}

// Figure 13: leave-one-out selection for one real kernel with the
// deployed DT model.

func BenchmarkFig13RealWorld(b *testing.B) {
	evals, _, _ := benchEvals(b)
	m := sim.Kaveri()
	ws, err := workloads.RealWorkloads(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.EvaluateWorkload(m, ws[8])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiments.LeaveOneOutSelection(m, evals, target,
			func(string) bool { return false }, ml.TreeTrainer{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Characterization: the training and oracle pipeline's unit of work,
// one dopia.Characterize (profile, model, 44-configuration sweep) of
// each of the fourteen real kernels at n=256 on Kaveri, inputs included.

func BenchmarkCharacterize(b *testing.B) {
	ws, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		b.Fatal(err)
	}
	m := dopia.Kaveri()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := dopia.Characterize(m, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks

// BenchmarkInterpreter measures functional execution throughput
// (work-items per op are reported via bytes: 1 item = 1 "byte").

func BenchmarkInterpreterGesummv(b *testing.B) {
	b.ReportAllocs()
	prog, err := clc.Compile(`__kernel void gesummv(__global float* A, __global float* B,
        __global float* x, __global float* y, float alpha, float beta, int N) {
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
    }`)
	if err != nil {
		b.Fatal(err)
	}
	n := 256
	ex, err := interp.NewExec(prog.Kernels[0])
	if err != nil {
		b.Fatal(err)
	}
	A := interp.NewFloatBuffer(n * n)
	B := interp.NewFloatBuffer(n * n)
	x := interp.NewFloatBuffer(n)
	y := interp.NewFloatBuffer(n)
	if err := ex.Bind(interp.BufArg(A), interp.BufArg(B), interp.BufArg(x), interp.BufArg(y),
		interp.FloatArg(1), interp.FloatArg(1), interp.IntArg(int64(n))); err != nil {
		b.Fatal(err)
	}
	if err := ex.Launch(interp.ND1(n, 64)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n) * int64(n) * 2 * 4) // bytes touched per run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := sim.NewFluid(20e9)
		for t := 0; t < 64; t++ {
			f.Add(t, sim.TaskCost{Compute: 1e-4, MemBytes: 1e6, PeakBW: 5e9})
		}
		for {
			if _, ok := f.Step(); !ok {
				break
			}
		}
	}
}

func BenchmarkStaticAnalysis(b *testing.B) {
	b.ReportAllocs()
	prog, err := clc.Compile(`__kernel void ex(__global float* A, __global float* B,
        __global float* C, __global float* D, __global int* Bi, int c1, int N, int M) {
        for (int i = 0; i < N; i++) {
            for (int j = 0; j < M; j++) {
                D[i * M + j] = A[i * M + j] + B[j * N + i] + C[c1] + C[Bi[j * N + i]];
            }
        }
    }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(prog.Kernels[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMalleableTransform(b *testing.B) {
	b.ReportAllocs()
	prog, err := clc.Compile(`__kernel void sum3(__global float* A, __global float* B,
        __global float* C, int n) {
        int i = get_global_id(0);
        if (i < n) { C[i] = A[i] + B[i] + C[i]; }
    }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.MalleableGPU(prog.Kernels[0], 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelInference44Configs(b *testing.B) {
	b.ReportAllocs()
	_, _, dt := benchEvals(b)
	m := sim.Kaveri()
	var base ml.Features
	base[ml.FGlobalSize] = 16384
	base[ml.FLocalSize] = 256
	base[ml.FMemContinuous] = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range m.Configs() {
			_ = dt.Predict(core.WithConfig(base, m, cfg))
		}
	}
}

func BenchmarkFrontEndCompile(b *testing.B) {
	b.ReportAllocs()
	src := `__kernel void conv2d(__global float* A, __global float* B, int NI, int NJ) {
        int j = get_global_id(0);
        int i = get_global_id(1);
        if (i > 0 && i < NI - 1 && j > 0 && j < NJ - 1) {
            B[i * NJ + j] = 0.2f * A[(i - 1) * NJ + j] + 0.5f * A[i * NJ + j]
                          + 0.3f * A[(i + 1) * NJ + j];
        }
    }`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clc.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Serving fast path: one steady-state launch over the binary wire
// protocol against an in-process daemon on loopback TCP. Every iteration
// executes the kernel through the fail-open ladder, so the loop measures
// a whole served launch — framing, admission, the managed execution,
// copy-on-read-back — and allocs/op tracks the pooled-arena discipline
// end to end.

func BenchmarkServingBinaryLaunch(b *testing.B) {
	srv, err := server.New(server.Config{Machine: sim.Kaveri()})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ms := server.NewMixedServer(srv)
	go func() { _ = ms.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = ms.Shutdown(ctx)
	}()
	bc, err := server.DialBin(ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer bc.Close()

	progID, _, _, err := bc.Compile(`__kernel void scale(__global float* x, __global float* y, float a, int n) {
        int i = get_global_id(0);
        if (i < n) { y[i] = a * x[i] + i * 0.5f; }
    }`)
	if err != nil {
		b.Fatal(err)
	}
	sid, err := bc.NewSession("")
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i%13) * 0.375
	}
	raw := make([]byte, 4*n)
	server.F32ToLE(raw, xs)
	if err := bc.CreateBufferRaw(sid, "x", 'f', raw); err != nil {
		b.Fatal(err)
	}
	if err := bc.CreateBufferZero(sid, "y", 'f', n); err != nil {
		b.Fatal(err)
	}
	a, nn := 1.75, int64(n)
	req := &server.BinLaunch{
		SessionID: sid, ProgramID: progID, Kernel: "scale",
		Args:   []server.LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &nn}},
		Global: []int{n}, Local: []int{64},
		Read: []string{"y"},
	}
	// Warm the program's compiled artifacts before timing.
	for i := 0; i < 3; i++ {
		if _, err := bc.Launch(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.Launch(req); err != nil {
			b.Fatal(err)
		}
	}
}
