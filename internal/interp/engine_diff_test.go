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
// at shard counts {1, 4}, demanding bit-identical buffers and profiles. It also asserts that the bytecode engine actually ran
// (no silent fallback) for every real kernel, so the differential
// coverage is not vacuous.
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
				eng, reason := ex.EngineUsed()
				if eng != interp.EngineBytecode {
					t.Fatalf("par=%d: fell back to %v (%s); real kernels must lower", par, eng, reason)
				}
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

// TestEngineFallbackOnLoweringFault injects a fault into the lowering
// pass and verifies the bytecode request degrades to the closure engine
// with the reason recorded — and that the fault sequence is not masked
// by the bytecode program cache (caches are bypassed while armed).
func TestEngineFallbackOnLoweringFault(t *testing.T) {
	src := `__kernel void f(__global float* a) {
		int i = get_global_id(0);
		a[i] = 2.0f;
	}`
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernels[0]

	// Warm both caches first so the test proves the bypass.
	warm, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	warm.Engine = interp.EngineBytecode
	b := interp.NewFloatBuffer(64)
	if err := warm.Bind(interp.BufArg(b)); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := warm.Launch(interp.ND1(32, 8)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if eng, _ := warm.EngineUsed(); eng != interp.EngineBytecode {
		t.Fatalf("warm launch did not select bytecode")
	}

	boom := errors.New("lowering fault")
	faults.InjectError("interp.lower", boom)
	t.Cleanup(faults.Reset)

	for i := 0; i < 2; i++ {
		ex, err := interp.NewExec(k)
		if err != nil {
			t.Fatalf("NewExec: %v", err)
		}
		ex.Engine = interp.EngineBytecode
		bb := interp.NewFloatBuffer(64)
		if err := ex.Bind(interp.BufArg(bb)); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := ex.Launch(interp.ND1(32, 8)); err != nil {
			t.Fatalf("Launch: %v", err)
		}
		eng, reason := ex.EngineUsed()
		if eng != interp.EngineClosures {
			t.Fatalf("launch %d: engine = %v, want closure fallback", i, eng)
		}
		if !strings.Contains(reason, "lowering fault") {
			t.Fatalf("launch %d: fallback reason %q does not carry the fault", i, reason)
		}
		if err := ex.Run(); err != nil {
			t.Fatalf("launch %d: fallback run failed: %v", i, err)
		}
		p := ex.Stats()
		if p.Engine != interp.EngineClosures || !strings.Contains(p.FallbackReason, "lowering fault") {
			t.Fatalf("launch %d: profile metadata %v/%q", i, p.Engine, p.FallbackReason)
		}
		for j, v := range bb.F32 {
			if j < 32 && v != 2.0 {
				t.Fatalf("launch %d: fallback run produced wrong data at %d: %v", i, j, v)
			}
		}
	}
	// The armed point must have been reached once per Launch: the cached
	// (pre-fault) bytecode program must not mask the injected sequence.
	if got := faults.HitCount("interp.lower"); got != 2 {
		t.Errorf("interp.lower hit count = %d, want 2 (cache bypassed while armed)", got)
	}
}

// TestEngineZeroValueSelection pins down the Engine field's contract: an
// explicit engine always wins, and the zero value (EngineAuto) means
// bytecode — before and after Launch — with the closure fallback and its
// reason recorded when the kernel cannot be lowered.
func TestEngineZeroValueSelection(t *testing.T) {
	src := `__kernel void g(__global float* a) { a[get_global_id(0)] = 1.0f; }`
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernels[0]
	launch := func(engine interp.Engine) *interp.Exec {
		ex, err := interp.NewExec(k)
		if err != nil {
			t.Fatalf("NewExec: %v", err)
		}
		ex.Engine = engine
		if eng, _ := ex.EngineUsed(); engine == interp.EngineAuto && eng != interp.EngineBytecode {
			t.Errorf("before Launch the zero Engine reports %v, want bytecode", eng)
		}
		if err := ex.Bind(interp.BufArg(interp.NewFloatBuffer(32))); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := ex.Launch(interp.ND1(32, 8)); err != nil {
			t.Fatalf("Launch: %v", err)
		}
		return ex
	}
	for _, tc := range []struct{ set, want interp.Engine }{
		{interp.EngineClosures, interp.EngineClosures},
		{interp.EngineBytecode, interp.EngineBytecode},
		{interp.EngineAuto, interp.EngineBytecode},
	} {
		ex := launch(tc.set)
		if eng, reason := ex.EngineUsed(); eng != tc.want || reason != "" {
			t.Errorf("Engine=%v resolved to %v (%q), want %v", tc.set, eng, reason, tc.want)
		}
		if p := ex.Stats(); p.Engine != tc.want {
			t.Errorf("Engine=%v: profile engine = %v, want %v", tc.set, p.Engine, tc.want)
		}
	}

	faults.InjectError("interp.lower", errors.New("lowering fault"))
	t.Cleanup(faults.Reset)
	ex := launch(interp.EngineAuto)
	eng, reason := ex.EngineUsed()
	if eng != interp.EngineClosures || !strings.Contains(reason, "lowering fault") {
		t.Errorf("zero Engine with a lowering fault resolved to %v (%q), want the closure fallback with its reason", eng, reason)
	}
	if p := ex.Stats(); p.Engine != interp.EngineClosures || p.FallbackReason != reason {
		t.Errorf("fallback profile metadata %v/%q, want closures/%q", p.Engine, p.FallbackReason, reason)
	}
}
