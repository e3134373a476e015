package main

// The -out mode: run the tier-1 component benchmarks in-process through
// testing.Benchmark and record ns/op, bytes/op, and allocs/op as JSON, so
// performance regressions between PRs are diffable files rather than
// scrollback. The benchmark bodies mirror bench_test.go.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

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

type benchRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Engine is the interpreter execution engine the benchmark ran on
	// ("bytecode", "closures", possibly with a fallback note), or
	// "none" for benchmarks that never execute kernels.
	Engine string `json:"engine"`
	// Machine is the simulated machine the benchmark ran on (empty for
	// benchmarks that never touch a machine model). Reports written
	// before the machine zoo lack the field; -compare falls back to
	// machine-less matching for those.
	Machine string `json:"machine,omitempty"`
}

// benchReport captures the effective execution environment alongside
// the measurements: NumCPU is the machine, GoMaxProcs the scheduler
// width the run actually used, which is also the interpreter's shard
// count. Each record names the engine its kernels resolved to.
type benchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

const gesummvSrc = `__kernel void gesummv(__global float* A, __global float* B,
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
}`

// interpreterBench measures the gesummv kernel on the default engine.
func interpreterBench() (func(b *testing.B), string, error) {
	prog, err := clc.Compile(gesummvSrc)
	if err != nil {
		return nil, "", err
	}
	n := 256
	ex, err := interp.NewExec(prog.Kernels[0])
	if err != nil {
		return nil, "", err
	}
	A := interp.NewFloatBuffer(n * n)
	B := interp.NewFloatBuffer(n * n)
	x := interp.NewFloatBuffer(n)
	y := interp.NewFloatBuffer(n)
	if err := ex.Bind(interp.BufArg(A), interp.BufArg(B), interp.BufArg(x), interp.BufArg(y),
		interp.FloatArg(1), interp.FloatArg(1), interp.IntArg(int64(n))); err != nil {
		return nil, "", err
	}
	if err := ex.Launch(interp.ND1(n, 64)); err != nil {
		return nil, "", err
	}
	eng, fallback := ex.EngineUsed()
	engineStr := eng.String()
	if fallback != "" {
		engineStr += " (fallback: " + fallback + ")"
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ex.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}, engineStr, nil
}

func heatmapBench(m *sim.Machine, dist sim.Distribution) func() (func(b *testing.B), string, error) {
	return func() (func(b *testing.B), string, error) {
		ws, err := workloads.RealWorkloads(512, 256)
		if err != nil {
			return nil, "", err
		}
		w := ws[8] // GESUMMV
		k, err := w.CompileKernel()
		if err != nil {
			return nil, "", err
		}
		ex, err := sched.NewExecutor(m, k, nil)
		if err != nil {
			return nil, "", err
		}
		ex.AssumeMalleable = true
		inst, err := w.Setup()
		if err != nil {
			return nil, "", err
		}
		if err := ex.Bind(inst.Args...); err != nil {
			return nil, "", err
		}
		if err := ex.Launch(inst.ND); err != nil {
			return nil, "", err
		}
		if _, err := ex.Model(); err != nil {
			return nil, "", err
		}
		eng, _ := ex.EngineUsed()
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range m.Configs() {
					if _, err := ex.Run(cfg, sched.RunOptions{Dist: dist}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}, eng.String(), nil
	}
}

func analysisBench() (func(b *testing.B), string, error) {
	prog, err := clc.Compile(`__kernel void ex(__global float* A, __global float* B,
        __global float* C, __global float* D, __global int* Bi, int c1, int N, int M) {
        for (int i = 0; i < N; i++) {
            for (int j = 0; j < M; j++) {
                D[i * M + j] = A[i * M + j] + B[j * N + i] + C[c1] + C[Bi[j * N + i]];
            }
        }
    }`)
	if err != nil {
		return nil, "", err
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Analyze(prog.Kernels[0]); err != nil {
				b.Fatal(err)
			}
		}
	}, "none", nil
}

func transformBench() (func(b *testing.B), string, error) {
	prog, err := clc.Compile(`__kernel void sum3(__global float* A, __global float* B,
        __global float* C, int n) {
        int i = get_global_id(0);
        if (i < n) { C[i] = A[i] + B[i] + C[i]; }
    }`)
	if err != nil {
		return nil, "", err
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := transform.MalleableGPU(prog.Kernels[0], 1); err != nil {
				b.Fatal(err)
			}
		}
	}, "none", nil
}

func inferenceBench(m *sim.Machine) func() (func(b *testing.B), string, error) {
	return func() (func(b *testing.B), string, error) {
		grid, err := workloads.SyntheticGrid()
		if err != nil {
			return nil, "", err
		}
		var sub []*workloads.Workload
		for i := 0; i < len(grid) && len(sub) < 40; i += len(grid) / 40 {
			sub = append(sub, grid[i])
		}
		evals, err := core.EvaluateAll(m, sub, 0)
		if err != nil {
			return nil, "", err
		}
		dt, err := ml.TreeTrainer{}.Fit(core.BuildDataset(m, evals))
		if err != nil {
			return nil, "", err
		}
		var base ml.Features
		base[ml.FGlobalSize] = 16384
		base[ml.FLocalSize] = 256
		base[ml.FMemContinuous] = 4
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range m.Configs() {
					_ = dt.Predict(core.WithConfig(base, m, cfg))
				}
			}
		}, "none", nil
	}
}

func frontEndBench() (func(b *testing.B), string, error) {
	src := `__kernel void conv2d(__global float* A, __global float* B, int NI, int NJ) {
        int j = get_global_id(0);
        int i = get_global_id(1);
        if (i > 0 && i < NI - 1 && j > 0 && j < NJ - 1) {
            B[i * NJ + j] = 0.2f * A[(i - 1) * NJ + j] + 0.5f * A[i * NJ + j]
                          + 0.3f * A[(i + 1) * NJ + j];
        }
    }`
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := clc.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	}, "none", nil
}

// servingBinaryBench measures the serving fast path end to end: one
// steady-state launch over the binary wire protocol against an
// in-process daemon on a loopback TCP listener. After warmup the
// launch's key hits the completed-launch memo, so the measurement is
// pure serving overhead — framing, admission, memo lookup,
// copy-on-read-back — and its allocs/op is the alloc-regression gate
// for the pooled-arena discipline.
func servingBinaryBench() (func(b *testing.B), string, error) {
	srv, err := server.New(server.Config{Machine: sim.Kaveri()})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	ms := server.NewMixedServer(srv)
	go func() { _ = ms.Serve(ln) }()
	bc, err := server.DialBin(ln.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, "", err
	}
	progID, _, _, err := bc.Compile(gesummvSrc)
	if err != nil {
		return nil, "", err
	}
	sid, err := bc.NewSession("")
	if err != nil {
		return nil, "", err
	}
	n := 256
	fill := func(name string, elems int, seed int) error {
		xs := make([]float32, elems)
		for i := range xs {
			xs[i] = float32((i+seed)%11) * 0.125
		}
		raw := make([]byte, 4*elems)
		server.F32ToLE(raw, xs)
		return bc.CreateBufferRaw(sid, name, 'f', raw)
	}
	for _, bspec := range []struct {
		name  string
		elems int
	}{{"A", n * n}, {"B", n * n}, {"x", n}} {
		if err := fill(bspec.name, bspec.elems, len(bspec.name)); err != nil {
			return nil, "", err
		}
	}
	if err := bc.CreateBufferZero(sid, "y", 'f', n); err != nil {
		return nil, "", err
	}
	alpha, beta, nn := 1.0, 1.0, int64(n)
	req := &server.BinLaunch{
		SessionID: sid, ProgramID: progID, Kernel: "gesummv",
		Args: []server.LaunchArg{
			{Buf: "A"}, {Buf: "B"}, {Buf: "x"}, {Buf: "y"},
			{Float: &alpha}, {Float: &beta}, {Int: &nn},
		},
		Global: []int{n}, Local: []int{64},
		Read: []string{"y"},
	}
	// Two warmup launches: the first executes over y=0, the second over
	// the overwritten y; from the third on, the content key is stable
	// and every launch is a memo replay.
	for i := 0; i < 3; i++ {
		if _, err := bc.Launch(req); err != nil {
			return nil, "", err
		}
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bc.Launch(req); err != nil {
				b.Fatal(err)
			}
		}
	}, "none", nil
}

// schedSweepSize is the problem size and work-group size of the
// recorded policy sweep. Simulated times are deterministic, so the
// sweep records diff exactly between reports: any delta is a real model
// or scheduler change, never measurement noise.
const (
	schedSweepN  = 2048
	schedSweepWG = 256
)

// schedSweepRecords simulates every real workload on every zoo machine
// under each co-execution policy and returns one record per cell, named
// SchedSweep/<machine>/<workload>/<sched> with ns_per_op holding the
// simulated execution time in nanoseconds.
func schedSweepRecords() ([]benchRecord, error) {
	rows, err := experiments.SchedSweepRows(schedSweepN, schedSweepWG)
	if err != nil {
		return nil, err
	}
	out := make([]benchRecord, 0, len(rows))
	for _, r := range rows {
		out = append(out, benchRecord{
			Name:    fmt.Sprintf("SchedSweep/%s/%s/%s", r.Machine, r.Workload, r.Sched),
			N:       1,
			NsPerOp: r.Time * 1e9,
			Engine:  "sim",
			Machine: r.Machine,
		})
	}
	return out, nil
}

// writeBenchReport runs the tier-1 component benchmarks on machine m
// (scheduling co-execution with dist where relevant), appends the
// cross-machine policy sweep, and writes the JSON report to path.
func writeBenchReport(path string, m *sim.Machine, dist sim.Distribution) error {
	set := []struct {
		name    string
		machine string // simulated machine the benchmark drives ("" = none)
		mk      func() (func(b *testing.B), string, error)
	}{
		{"InterpreterGesummv", "", interpreterBench},
		{"Fig1Heatmap", m.Name, heatmapBench(m, dist)},
		{"StaticAnalysis", "", analysisBench},
		{"MalleableTransform", "", transformBench},
		{"ModelInference44Configs", m.Name, inferenceBench(m)},
		{"FrontEndCompile", "", frontEndBench},
		// The serving bench measures wire-protocol overhead, not the
		// simulator; it stays pinned to the paper's default machine so
		// its numbers compare across reports regardless of -machine.
		{"ServingBinaryLaunch", sim.Kaveri().Name, servingBinaryBench},
	}
	rep := benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, s := range set {
		fn, engine, err := s.mk()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		note := engine
		if s.machine != "" {
			note = fmt.Sprintf("%s, machine=%s", note, s.machine)
		}
		fmt.Printf("%-26s %12.0f ns/op %10d B/op %8d allocs/op  [%s]\n",
			s.name, float64(res.T.Nanoseconds())/float64(res.N),
			res.AllocedBytesPerOp(), res.AllocsPerOp(), note)
		rep.Benchmarks = append(rep.Benchmarks, benchRecord{
			Name:        s.name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			Engine:      engine,
			Machine:     s.machine,
		})
	}
	sweep, err := schedSweepRecords()
	if err != nil {
		return fmt.Errorf("sched sweep: %w", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, sweep...)
	fmt.Printf("%-26s %d records (n=%d, wg=%d, simulated time as ns/op)\n",
		"SchedSweep/*", len(sweep), schedSweepN, schedSweepWG)
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
