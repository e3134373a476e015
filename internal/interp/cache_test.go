package interp

import (
	"errors"
	"testing"

	"dopia/internal/faults"
)

// TestCompileCacheShared verifies that two executors of the same kernel
// share one immutable compiled form, and that distinct kernels do not.
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
	if ex1.ck != ex2.ck {
		t.Errorf("same kernel compiled twice: compiled forms not shared")
	}
	if ex1.ck == ex3.ck {
		t.Errorf("distinct kernels share a compiled form")
	}
}

// TestCompileCacheEngineKeyed checks that the two compiled forms of one
// kernel are stored apart: a bytecode launch and a closure-pinned launch
// each reuse their own form, and the closure-pinned executor never
// reports (or holds) the bytecode program. The memo keys are distinct
// types, so serving one form as the other is a compile error rather than
// something to assert at run time.
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
		if err := ex.Launch(ND1(32, 8)); err != nil { // resolves + lowers
			t.Fatalf("Launch: %v", err)
		}
		return ex
	}
	bc1, bc2 := launch(EngineBytecode), launch(EngineBytecode)
	for _, ex := range []*Exec{bc1, bc2} {
		if eng, reason := ex.EngineUsed(); eng != EngineBytecode {
			t.Fatalf("bytecode launch fell back to %v (%s)", eng, reason)
		}
	}
	if bc1.prog == nil || bc1.prog != bc2.prog {
		t.Error("bytecode executors do not share one lowered program")
	}

	cl := launch(EngineClosures)
	if eng, _ := cl.EngineUsed(); eng != EngineClosures {
		t.Fatalf("closure launch reports engine %v", eng)
	}
	if cl.ck != bc1.ck {
		t.Error("closure executor did not reuse the kernel's closure tree")
	}
	if cl.prog != nil {
		t.Error("closure-pinned executor holds a bytecode program")
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("closure run: %v", err)
	}
	if p := cl.Stats(); p.Engine != EngineClosures {
		t.Errorf("closure-pinned run reports engine %v", p.Engine)
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
