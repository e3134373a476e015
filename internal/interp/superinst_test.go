package interp

import (
	"fmt"
	"reflect"
	"testing"
)

// fusedHeads counts the opFMALoopF32 heads in an executor's lowered
// program and renders its opcode stream for failure messages.
func fusedHeads(t *testing.T, ex *Exec) (int, string) {
	t.Helper()
	if ex.prog == nil {
		t.Fatal("no bytecode program after launch")
	}
	fused, ops := 0, ""
	for _, code := range ex.prog.segments {
		for i := range code {
			if code[i].op == opFMALoopF32 {
				fused++
			}
			ops += fmt.Sprintf(" %d", code[i].op)
		}
	}
	return fused, ops
}

// TestFusedLoopPresent proves the peephole actually fires on the
// flagship workload: gesummv's inner loop must lower to a fused
// opFMALoopF32 head.
func TestFusedLoopPresent(t *testing.T) {
	n := 48
	ex := newExec(t, gesummvSrc, "gesummv")
	ex.Engine = EngineBytecode
	A, B := NewFloatBuffer(n*n), NewFloatBuffer(n*n)
	x, y := NewFloatBuffer(n), NewFloatBuffer(n)
	if err := ex.Bind(BufArg(A), BufArg(B), BufArg(x), BufArg(y),
		FloatArg(1.5), FloatArg(0.5), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if fused, ops := fusedHeads(t, ex); fused == 0 {
		t.Fatalf("gesummv lowered without a fused FMA loop (opcodes:%s)", ops)
	}
}

// dotSrc's inner loop indexes both operands by the induction variable
// alone, so its FMA lowers to the plain opFMALd2F32 form rather than the
// multiply-add-absorbing one gesummv produces.
const dotSrc = `
__kernel void dot(__global float* a, __global float* b, __global float* out, int N)
{
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < N; j++) {
        acc += a[j] * b[j];
    }
    out[i] = acc + (float)i;
}`

// TestFusedLoopPlainFMA: a loop over the plain FMA form fuses too, and
// the fused run is bit-identical to the closure engine in buffers and
// profile.
func TestFusedLoopPlainFMA(t *testing.T) {
	n := 40
	run := func(engine Engine) (*Exec, *Buffer) {
		ex := newExec(t, dotSrc, "dot")
		ex.Engine = engine
		a, b, out := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(16)
		for i := 0; i < n; i++ {
			a.F32[i] = float32(i%7)*0.37 - 1
			b.F32[i] = float32(i%5)*0.21 + 0.1
		}
		if err := ex.Bind(BufArg(a), BufArg(b), BufArg(out), IntArg(int64(n))); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(ND1(16, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		return ex, out
	}
	bc, got := run(EngineBytecode)
	if fused, ops := fusedHeads(t, bc); fused == 0 {
		t.Fatalf("dot lowered without a fused FMA loop (opcodes:%s)", ops)
	}
	ref, want := run(EngineClosures)
	if !reflect.DeepEqual(got.F32, want.F32) {
		t.Fatalf("fused plain-FMA loop diverges from the closure engine:\n got %v\nwant %v", got.F32, want.F32)
	}
	gotProf, wantProf := bc.Stats(), ref.Stats()
	gotProf.Engine, wantProf.Engine = 0, 0 // the one field that legitimately differs
	if !reflect.DeepEqual(gotProf, wantProf) {
		t.Fatalf("profile diverges:\n got %+v\nwant %+v", gotProf, wantProf)
	}
}
