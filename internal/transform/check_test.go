package transform_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/core"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ocl"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// sameVerdict asserts that Check accepts k at workDim exactly when
// MalleableGPU does, and otherwise fails it with the same error: equal
// text, stage and unsupported-kernel classification.
func sameVerdict(t *testing.T, name string, k *clc.Kernel, workDim int) {
	t.Helper()
	cerr := transform.Check(k, workDim)
	_, merr := transform.MalleableGPU(k, workDim)
	switch {
	case (cerr == nil) != (merr == nil):
		t.Errorf("%s dim %d: Check says %v, MalleableGPU says %v", name, workDim, cerr, merr)
	case cerr == nil:
	case cerr.Error() != merr.Error():
		t.Errorf("%s dim %d: error text differs:\nCheck:        %v\nMalleableGPU: %v", name, workDim, cerr, merr)
	case faults.StageOf(cerr) != faults.StageOf(merr) || faults.StageOf(cerr) != faults.StageTransform:
		t.Errorf("%s dim %d: stages %s and %s, want both %s", name, workDim,
			faults.StageOf(cerr), faults.StageOf(merr), faults.StageTransform)
	case errors.Is(cerr, faults.ErrUnsupportedKernel) != errors.Is(merr, faults.ErrUnsupportedKernel):
		t.Errorf("%s dim %d: unsupported-kernel classification differs: %v / %v", name, workDim, cerr, merr)
	}
}

func compileKernel(t *testing.T, src, name string) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	k := prog.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %q not found", name)
	}
	return k
}

// hostileKernels are kernels aimed at the transform's rules: reserved and
// clashing names, barriers, returns at every depth, and __local state.
var hostileKernels = []struct{ name, src string }{
	{"param __dopia_work", `__kernel void k(__global int* __dopia_work) { __dopia_work[get_global_id(0)] = 1; }`},
	{"param __dopia_gid0", `__kernel void k(__global int* __dopia_gid0) { __dopia_gid0[get_global_id(0)] = 1; }`},
	{"param __dopia_worklist", `__kernel void k(__global int* __dopia_worklist) { __dopia_worklist[get_global_id(0)] = 1; }`},
	{"scalar param __dopia_lid0", `__kernel void k(__global int* a, int __dopia_lid0) { a[get_global_id(0)] = __dopia_lid0; }`},
	{"local __dopia_work", `__kernel void k(__global int* a) { int __dopia_work = 3; a[get_global_id(0)] = __dopia_work; }`},
	{"local __dopia_worklist", `__kernel void k(__global int* a) { __local int __dopia_worklist[4]; a[get_global_id(0)] = __dopia_worklist[0]; }`},
	{"param dop_gpu_mod", `__kernel void k(__global int* a, int dop_gpu_mod) { a[get_global_id(0)] = dop_gpu_mod; }`},
	{"param dop_gpu_alloc", `__kernel void k(__global int* a, int dop_gpu_alloc) { a[get_global_id(0)] = dop_gpu_alloc; }`},
	{"local dop_gpu_mod", `__kernel void k(__global int* a) { int dop_gpu_mod = 2; a[get_global_id(0)] = dop_gpu_mod; }`},
	{"local dop_gpu_alloc", `__kernel void k(__global int* a) { int dop_gpu_alloc = get_local_id(0); a[get_global_id(0)] = dop_gpu_alloc; }`},
	{"top-level barrier", `__kernel void k(__global int* a) { barrier(CLK_LOCAL_MEM_FENCE); a[get_global_id(0)] = 1; }`},
	{"top-level return", `__kernel void k(__global int* a, int n) { int i = get_global_id(0); if (i >= n) return; a[i] = 1; return; }`},
	{"return in if", `__kernel void k(__global int* a, int n) { int i = get_global_id(0); if (i < n) { a[i] = 1; return; } else { return; } }`},
	{"return in for", `__kernel void k(__global int* a, int n) { for (int j = 0; j < n; j++) { if (a[j] == 0) return; a[j] = 1; } }`},
	{"return in while", `__kernel void k(__global int* a, int n) { int j = 0; while (j < n) { if (a[j] == 0) { return; } j++; } }`},
	{"return in do-while", `__kernel void k(__global int* a, int n) { int j = 0; do { return; } while (j < n); }`},
	{"return in nested block in loop", `__kernel void k(__global int* a, int n) { for (int j = 0; j < n; j++) { { if (j > 2) { return; } } } }`},
	{"top-level __local without barrier", `__kernel void k(__global float* a) { __local float t[16]; t[get_local_id(0) % 16] = 1.0f; a[get_global_id(0)] = t[0]; }`},
	{"2-D ids", `__kernel void k(__global float* a, int n) { int y = get_global_id(1); int x = get_global_id(0); if (x < n) a[y * n + x] = get_local_id(1) + 0.5f; }`},
}

// TestCheckMatchesMalleableGPU holds the verdict to the generator on the
// 14 real kernels at every work-dim, the first 500 generated conformance
// cases of each class, and a table of hostile kernels.
func TestCheckMatchesMalleableGPU(t *testing.T) {
	ws, err := workloads.RealWorkloads(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		for dim := 0; dim <= 3; dim++ {
			sameVerdict(t, w.Name, k, dim)
		}
		if err := transform.Check(k, w.WorkDim); err != nil {
			t.Errorf("%s: real kernel rejected: %v", w.Name, err)
		}
	}
	for _, class := range []conformance.Class{conformance.ClassTotal, conformance.ClassTrappy} {
		for seed := uint64(0); seed < 500; seed++ {
			c, err := conformance.GenerateClass(seed, class)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, c.String(), compileKernel(t, c.Source, c.Kernel), c.ND.Dims)
		}
	}
	for _, h := range hostileKernels {
		k := compileKernel(t, h.src, "k")
		for dim := 1; dim <= 2; dim++ {
			sameVerdict(t, h.name, k, dim)
		}
	}
}

// TestLaunchGeneratesNothing runs a managed first launch of a fresh
// kernel through the OpenCL runtime with Dopia attached, and one through
// Framework.ExecuteCtx: neither generates the kernel's malleable form,
// and neither reaches the front-end during enqueue.
func TestLaunchGeneratesNothing(t *testing.T) {
	t.Cleanup(faults.Reset)
	m := sim.Kaveri()
	fw := core.New(m, nil)
	const n = 256
	src := func(name string) string {
		return fmt.Sprintf(`__kernel void %s(__global float* a, int n) {
            int i = get_global_id(0);
            if (i < n) a[i] = a[i] * 0.5f + 1.0f;
        }`, name)
	}

	// ocl launches one fresh kernel, with clc.parse armed before enqueue
	// or not; the armed launch bypasses the memo, so the disarmed one
	// checks it.
	viaOCL := func(name string, armParse bool) *clc.Kernel {
		p := ocl.NewPlatform(m)
		ctx := p.CreateContext()
		fw.Attach(ctx)
		prog := ctx.CreateProgramWithSource(src(name))
		if err := prog.Build(); err != nil {
			t.Fatal(err)
		}
		kern, err := prog.CreateKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []any{ctx.CreateFloatBuffer(n), n} {
			if err := kern.SetArg(i, v); err != nil {
				t.Fatal(err)
			}
		}
		if armParse {
			faults.Inject("clc.parse", faults.Plan{})
		}
		q := ctx.CreateCommandQueue(p.Device(ocl.DeviceCPU))
		if err := q.EnqueueNDRangeKernel(kern, interp.ND1(n, 64)); err != nil {
			t.Fatal(err)
		}
		if info := q.LastLaunch.(*core.LaunchInfo); info.Rung != "managed" {
			t.Errorf("%s: served on rung %q (cause %v), want managed", name, info.Rung, info.Cause)
		}
		return kern.Compiled()
	}
	viaFramework := func(name string, armParse bool) *clc.Kernel {
		k := compileKernel(t, src(name), name)
		if armParse {
			faults.Inject("clc.parse", faults.Plan{})
		}
		args := []interp.Arg{interp.BufArg(interp.NewFloatBuffer(n)), interp.IntArg(n)}
		if _, err := fw.ExecuteCtx(context.Background(), k, args, interp.ND1(n, 64)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return k
	}

	for _, path := range []struct {
		name   string
		launch func(string, bool) *clc.Kernel
	}{{"ocl", viaOCL}, {"framework", viaFramework}} {
		faults.Reset()
		if k := path.launch("nogen_"+path.name, false); transform.Generated(k, 1) {
			t.Errorf("%s: the launch generated the kernel's malleable form", path.name)
		}
		path.launch("noparse_"+path.name, true)
		if hits := faults.HitCount("clc.parse"); hits != 0 {
			t.Errorf("%s: enqueue reached clc.parse %d times, want 0", path.name, hits)
		}
	}
}
