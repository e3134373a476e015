package interp

import (
	"errors"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/faults"
)

// TestCompileCacheShared verifies that two executors of the same kernel
// share one immutable layout, and that distinct kernels do not.
func TestCompileCacheShared(t *testing.T) {
	src := `
__kernel void add(__global float* a, __global float* b) {
	int i = get_global_id(0);
	a[i] = a[i] + b[i];
}
__kernel void sub(__global float* a, __global float* b) {
	int i = get_global_id(0);
	a[i] = a[i] - b[i];
}`
	k1 := compileKernelSrc(t, src, "add")
	k2 := compileKernelSrc(t, src, "sub")
	ex1, err := NewExec(k1)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	ex2, err := NewExec(k1)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	ex3, err := NewExec(k2)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	if ex1.lay != ex2.lay {
		t.Errorf("same kernel laid out twice: layouts not shared")
	}
	if ex1.lay == ex3.lay {
		t.Errorf("distinct kernels share a layout")
	}
}

// TestCompileCacheEngineKeyed checks that the two programs of one kernel
// are stored apart and built only for the engine a launch selects: two
// bytecode launches share one lowered program and hold no closure tree,
// two closure launches share one closure tree and hold no bytecode
// program. The memo keys are distinct types, so serving one form as the
// other is a compile error rather than something to assert at run time.
func TestCompileCacheEngineKeyed(t *testing.T) {
	src := `
__kernel void ek(__global float* a) {
	int i = get_global_id(0);
	a[i] = a[i] + 1.0f;
}`
	k := compileKernelSrc(t, src, "ek")
	launch := func(engine Engine) *Exec {
		t.Helper()
		ex, err := NewExec(k)
		if err != nil {
			t.Fatalf("NewExec: %v", err)
		}
		ex.Engine = engine
		if err := ex.Bind(BufArg(NewFloatBuffer(32))); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := ex.Launch(ND1(32, 8)); err != nil { // builds the engine's program
			t.Fatalf("Launch: %v", err)
		}
		return ex
	}
	bc1, bc2 := launch(EngineBytecode), launch(EngineBytecode)
	if bc1.prog == nil || bc1.prog != bc2.prog {
		t.Error("bytecode executors do not share one lowered program")
	}
	if bc1.ck != nil {
		t.Error("bytecode executor holds a closure tree")
	}
	cl1, cl2 := launch(EngineClosures), launch(EngineClosures)
	if cl1.ck == nil || cl1.ck != cl2.ck {
		t.Error("closure executors do not share one closure tree")
	}
	if cl1.prog != nil {
		t.Error("closure-pinned executor holds a bytecode program")
	}
	if err := cl1.Run(); err != nil {
		t.Fatalf("closure run: %v", err)
	}
	if p := cl1.Stats(); p.Engine != EngineClosures {
		t.Errorf("closure-pinned run reports engine %v", p.Engine)
	}
}

// TestDefaultLaunchBuildsNoClosureTree checks that a default-engine
// NewExec, Launch and Run never build the kernel's closure tree: had any
// of them stored it on the kernel, the memo would serve it below instead
// of building one.
func TestDefaultLaunchBuildsNoClosureTree(t *testing.T) {
	k := compileKernelSrc(t, `
__kernel void dflt(__global float* a) {
	a[get_global_id(0)] = 3.0f;
}`, "dflt")
	ex, err := NewExec(k)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	if err := ex.Bind(BufArg(NewFloatBuffer(32))); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := ex.Launch(ND1(32, 8)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := ex.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ex.prog == nil || ex.ck != nil {
		t.Fatalf("default launch holds program %v, closure tree %v; want bytecode only", ex.prog != nil, ex.ck != nil)
	}
	built := false
	if _, err := clc.Memo(k, closureKey{}, func() (*compiled, error) {
		built = true
		return compileKernel(k, ex.lay)
	}); err != nil {
		t.Fatalf("compileKernel: %v", err)
	}
	if !built {
		t.Error("the default launch stored a closure tree on the kernel")
	}
}

// TestCompileCacheBypassedWhileFaultsArmed verifies that an armed
// interp.compile fault fires on every NewExec even for cached kernels:
// memoization must never mask an injected fault sequence.
func TestCompileCacheBypassedWhileFaultsArmed(t *testing.T) {
	src := `
__kernel void one(__global float* a) {
	int i = get_global_id(0);
	a[i] = 1.0f;
}`
	k := compileKernelSrc(t, src, "one")
	if _, err := NewExec(k); err != nil { // warm the cache
		t.Fatalf("NewExec: %v", err)
	}
	boom := errors.New("boom")
	faults.InjectError("interp.compile", boom)
	t.Cleanup(faults.Reset)
	for i := 0; i < 2; i++ {
		if _, err := NewExec(k); !errors.Is(err, boom) {
			t.Fatalf("NewExec %d with armed fault: got %v, want injected error", i, err)
		}
	}
	if got := faults.HitCount("interp.compile"); got != 2 {
		t.Errorf("interp.compile hit count = %d, want 2", got)
	}
}
