package interp_test

// Differential tests between the two execution engines. The closure
// engine is the reference; the bytecode engine must be bit-identical in
// every observable — output buffers, statistics profiles, per-site
// access patterns, runtime-error text, and fault behaviour — under every
// shard count and sampling rate.
//
// Run with -race: the engines share compile caches and the bytecode
// path adds per-shard register scratch, so the race detector doubles as
// a proof that engine state never leaks across shard workers.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// runOnEngine executes one workload instance on a fresh Exec pinned to
// the given engine and returns the executor for stats/buffer checks.
func runOnEngine(t *testing.T, k *clc.Kernel, inst *workloads.Instance,
	engine interp.Engine, parallelism int) *interp.Exec {
	t.Helper()
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	ex.Engine = engine
	ex.Parallelism = parallelism
	if err := ex.Bind(inst.Args...); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := ex.Launch(inst.ND); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := ex.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return ex
}

// sameProfileModuloEngine reports whether two profiles agree modulo the
// engine metadata, which legitimately differs between the reference and
// the engine under test (conformance.DiffProfiles implements the
// comparison; it is shared with the differential-conformance oracle).
func sameProfileModuloEngine(a, b *interp.Profile) bool {
	return conformance.DiffProfiles(a, b) == ""
}

// TestEngineDifferentialRealWorkloads runs every real workload kernel on
// the closure engine (sequential reference) and on the bytecode engine
// at shard counts {1, 4}, demanding bit-identical buffers and profiles.
func TestEngineDifferentialRealWorkloads(t *testing.T) {
	ws, err := workloads.RealWorkloads(128, 32)
	if err != nil {
		t.Fatalf("RealWorkloads: %v", err)
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			k, err := w.CompileKernel()
			if err != nil {
				t.Fatalf("CompileKernel: %v", err)
			}
			refInst, err := w.Setup()
			if err != nil {
				t.Fatalf("Setup: %v", err)
			}
			ref := runOnEngine(t, k, refInst, interp.EngineClosures, 1)
			refObs := observe("closures/shards=1", refInst, ref)

			for _, par := range []int{1, 4} {
				inst, err := w.Setup()
				if err != nil {
					t.Fatalf("Setup: %v", err)
				}
				ex := runOnEngine(t, k, inst, interp.EngineBytecode, par)
				conformance.AssertIdentical(t, refObs,
					observe(fmt.Sprintf("bytecode/shards=%d", par), inst, ex))
			}
		})
	}
}

// corpusKernels compiles every kernel that the front-end fuzz corpus
// (testdata/fuzz/FuzzParse seeds plus the committed workload sources)
// can produce. Seeds that fail to compile are skipped — the corpus
// deliberately contains garbage.
func corpusKernels(t *testing.T) []*clc.Kernel {
	t.Helper()
	var srcs []string
	dir := filepath.Join("..", "clc", "testdata", "fuzz", "FuzzParse")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus: %v", err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("fuzz corpus: %v", err)
		}
		// Go fuzz corpus format: a version line then one quoted value
		// per line ("string(...)").
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(line[len("string(") : len(line)-1]); err == nil {
				srcs = append(srcs, s)
			}
		}
	}
	var ks []*clc.Kernel
	for _, src := range srcs {
		prog, err := clc.Compile(src)
		if err != nil {
			continue
		}
		ks = append(ks, prog.Kernels...)
	}
	if len(ks) == 0 {
		t.Fatal("fuzz corpus produced no compiling kernels")
	}
	return ks
}

// synthesizeArgs builds deterministic arguments for an arbitrary
// compiled kernel: pointer parameters get n-element buffers with small
// deterministic contents, integer scalars get a small positive value
// (they are usually bounds), float scalars a non-trivial constant.
func synthesizeArgs(k *clc.Kernel, n int) []interp.Arg {
	args := make([]interp.Arg, len(k.Params))
	for i, p := range k.Params {
		if p.Type.Ptr {
			b := interp.NewBuffer(p.Type.Kind, n)
			for j := 0; j < n; j++ {
				switch {
				case len(b.F32) > 0:
					b.F32[j] = float32(j%7) - 2.5
				case len(b.F64) > 0:
					b.F64[j] = float64(j%7) - 2.5
				case len(b.I32) > 0:
					b.I32[j] = int32(j % 5)
				default:
					b.I64[j] = int64(j % 5)
				}
			}
			args[i] = interp.BufArg(b)
		} else if p.Type.Kind.IsFloat() {
			args[i] = interp.FloatArg(1.5)
		} else {
			args[i] = interp.IntArg(int64(4 + i))
		}
	}
	return args
}

// runKernelOn runs a synthesized-argument kernel on one engine and
// returns the full observation: buffer byte images, profile, and run
// error (nil for success).
func runKernelOn(t *testing.T, k *clc.Kernel, engine interp.Engine,
	parallelism, n int) *conformance.Observation {
	t.Helper()
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("NewExec(%s): %v", k.Name, err)
	}
	ex.Engine = engine
	ex.Parallelism = parallelism
	args := synthesizeArgs(k, n)
	if err := ex.Bind(args...); err != nil {
		t.Fatalf("Bind(%s): %v", k.Name, err)
	}
	if err := ex.Launch(interp.ND1(32, 8)); err != nil {
		t.Fatalf("Launch(%s): %v", k.Name, err)
	}
	obs := &conformance.Observation{
		Leg:     fmt.Sprintf("%v/shards=%d", engine, parallelism),
		Err:     ex.Run(),
		Profile: ex.Stats(),
	}
	for i, a := range args {
		if a.IsBuf {
			obs.Buffers = append(obs.Buffers, conformance.BufferObs{
				Name:  fmt.Sprintf("arg%d", i),
				Bytes: conformance.BufferBytes(a.Buf),
			})
		}
	}
	return obs
}

// TestEngineDifferentialFuzzCorpus runs every compiling fuzz-corpus
// kernel through both engines with synthesized arguments and demands
// identical buffers and profiles — and, when the kernel traps,
// identical error text. Trap equality matters: runtime errors carry
// source positions and counter state observed mid-kernel.
//
// Corpus kernels run at parallelism 1 only: arbitrary fuzz inputs may
// write the same element from different work-items, which is a
// legitimate data race under sharding for either engine (and trips the
// race detector regardless of the comparison). The real-workload
// differential test covers the multi-shard path with kernels that are
// race-free by construction.
func TestEngineDifferentialFuzzCorpus(t *testing.T) {
	for _, k := range corpusKernels(t) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			cObs := runKernelOn(t, k, interp.EngineClosures, 1, 64)
			bObs := runKernelOn(t, k, interp.EngineBytecode, 1, 64)
			conformance.AssertIdentical(t, cObs, bObs)
		})
	}
}

// trapKernels are handcrafted kernels whose runtime behaviour traps
// mid-execution; both engines must report the identical error at the
// identical point with identical partial statistics. They rely on the
// synthesizeArgs convention that the int scalar at parameter index 1
// receives the value 4+1 = 5 and pointer buffers have 64 elements:
// n*16 = 80 overruns the buffer, and n-5 = 0 divides by zero.
var trapKernels = []struct{ name, src string }{
	{"bounds", `__kernel void bounds(__global float* a, int n) {
		int i = get_global_id(0);
		a[i + n * 16] = 1.0f;
	}`},
	{"div0", `__kernel void div0(__global int* a, int n) {
		int i = get_global_id(0);
		a[i % 8] = i / (n - 5);
	}`},
	{"mod0", `__kernel void mod0(__global int* a, int n) {
		int i = get_global_id(0);
		a[i % 8] = i % (n - 5);
	}`},
	// The atomic counts and loads its old value before its operand's
	// load traps.
	{"atomic-operand", `__kernel void atomop(__global int* a, int n) {
		int i = get_global_id(0);
		atomic_add(a, a[i + n * 16]);
	}`},
}

// TestEngineDifferentialAtomics runs atomics whose operands have effects
// — loads, nested atomics on the same target, writes to variables — on
// both engines, __local and global, over int and long targets, and
// demands identical buffers and profiles.
func TestEngineDifferentialAtomics(t *testing.T) {
	for _, src := range []string{
		`__kernel void atomg(__global int* a, int n, __global int* b) {
			int i = get_global_id(0);
			int old = atomic_add(a, atomic_inc(a) + b[i]);
			b[i] = atomic_xchg(a, b[i % n]) + atomic_min(a, old = b[i + 1]) + old;
		}`,
		`__kernel void atoml(__global long* a, int n, __global int* b) {
			__local int s[2];
			int i = get_global_id(0);
			int k = 0;
			atomic_max(s, atomic_add(s, i) + k++);
			a[i] = atomic_sub(a, atomic_dec(s) * k) + s[0] + s[1];
		}`,
	} {
		prog, err := clc.Compile(src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		k := prog.Kernels[0]
		t.Run(k.Name, func(t *testing.T) {
			cObs := runKernelOn(t, k, interp.EngineClosures, 1, 64)
			bObs := runKernelOn(t, k, interp.EngineBytecode, 1, 64)
			if cObs.Err != nil {
				t.Fatalf("closure engine trapped: %v", cObs.Err)
			}
			conformance.AssertIdentical(t, cObs, bObs)
		})
	}
}

// TestEngineDifferentialTraps compiles each trap kernel and verifies
// both engines produce the same error text and the same trap-time
// statistics totals.
func TestEngineDifferentialTraps(t *testing.T) {
	for _, tk := range trapKernels {
		tk := tk
		t.Run(tk.name, func(t *testing.T) {
			prog, err := clc.Compile(tk.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			k := prog.Kernels[0]
			cObs := runKernelOn(t, k, interp.EngineClosures, 1, 64)
			bObs := runKernelOn(t, k, interp.EngineBytecode, 1, 64)
			if cObs.Err == nil || bObs.Err == nil {
				t.Fatalf("expected traps, got closures=%v bytecode=%v", cObs.Err, bObs.Err)
			}
			conformance.AssertIdentical(t, cObs, bObs)
		})
	}
}

// TestLoweringFaultFailsLaunch injects a fault into the lowering pass
// and verifies that a bytecode launch fails with a compile-stage error —
// no launch falls back to the closure engine — and that the fault
// sequence is not masked by the bytecode program memo (it is bypassed
// while armed): the injection site is hit once per Launch.
func TestLoweringFaultFailsLaunch(t *testing.T) {
	src := `__kernel void f(__global float* a) {
		int i = get_global_id(0);
		a[i] = 2.0f;
	}`
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernels[0]
	launch := func() (*interp.Exec, error) {
		ex, err := interp.NewExec(k)
		if err != nil {
			t.Fatalf("NewExec: %v", err)
		}
		if err := ex.Bind(interp.BufArg(interp.NewFloatBuffer(64))); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		return ex, ex.Launch(interp.ND1(32, 8))
	}
	// Warm the memo first so the test proves the bypass.
	if _, err := launch(); err != nil {
		t.Fatalf("warm Launch: %v", err)
	}

	boom := errors.New("lowering fault")
	faults.InjectError("interp.lower", boom)
	t.Cleanup(faults.Reset)
	for i := 0; i < 2; i++ {
		ex, err := launch()
		if !errors.Is(err, boom) || faults.StageOf(err) != faults.StageCompile {
			t.Fatalf("launch %d: err = %v (stage %v), want the injected fault at %v",
				i, err, faults.StageOf(err), faults.StageCompile)
		}
		if err := ex.Run(); err == nil {
			t.Fatalf("launch %d: Run after a failed Launch succeeded", i)
		}
	}
	if got := faults.HitCount("interp.lower"); got != 2 {
		t.Errorf("interp.lower hit count = %d, want 2 (memo bypassed while armed)", got)
	}
}

// TestEngineZeroValueSelection pins down the Engine field's contract: an
// explicit engine always wins, and the zero value means bytecode — before
// and after Launch.
func TestEngineZeroValueSelection(t *testing.T) {
	src := `__kernel void g(__global float* a) { a[get_global_id(0)] = 1.0f; }`
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernels[0]
	var zero interp.Engine
	for _, tc := range []struct{ set, want interp.Engine }{
		{interp.EngineClosures, interp.EngineClosures},
		{interp.EngineBytecode, interp.EngineBytecode},
		{zero, interp.EngineBytecode},
	} {
		ex, err := interp.NewExec(k)
		if err != nil {
			t.Fatalf("NewExec: %v", err)
		}
		ex.Engine = tc.set
		if eng, _ := ex.EngineUsed(); eng != interp.EngineBytecode {
			t.Errorf("before Launch an executor reports %v, want bytecode", eng)
		}
		if err := ex.Bind(interp.BufArg(interp.NewFloatBuffer(32))); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := ex.Launch(interp.ND1(32, 8)); err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if eng, reason := ex.EngineUsed(); eng != tc.want || reason != "" {
			t.Errorf("Engine=%v resolved to %v (%q), want %v", tc.set, eng, reason, tc.want)
		}
		if p := ex.Stats(); p.Engine != tc.want {
			t.Errorf("Engine=%v: profile engine = %v, want %v", tc.set, p.Engine, tc.want)
		}
	}
}
