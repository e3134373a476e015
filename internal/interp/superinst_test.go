package interp

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"dopia/internal/clc"
)

// fusedHeads counts the opFMALoopF32 heads in an executor's lowered
// program (FusedHeads) and renders its opcode stream for failure messages.
func fusedHeads(t testing.TB, ex *Exec) (int, string) {
	t.Helper()
	if ex.prog == nil {
		t.Fatal("no bytecode program after launch")
	}
	ops := ""
	for _, code := range ex.prog.segments {
		for i := range code {
			ops += fmt.Sprintf(" %d", code[i].op)
		}
	}
	return FusedHeads(ex), ops
}

// TestInstrSize pins a VM instruction at 64 bytes, a cache line: the
// dispatch loop streams instructions, so a field added to instr has to fit
// or pay for the wider stream.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(instr{}); n != 64 {
		t.Fatalf("instr is %d bytes, want 64", n)
	}
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
// alone, so its term's indexes are plain registers rather than the
// absorbed multiply-add gesummv's A index is.
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

// colKernel is a matrix-vector kernel whose inner loop walks A by the
// given index under the given loop header. In a column walk the induction
// variable feeds the multiply of the index (ATAX2, BICG1 and MVT2 are
// colSrc).
func colKernel(loop, index string) string {
	return `
__kernel void col(__global float* A, __global float* x, __global float* y, int N, int M)
{
    int i = get_global_id(0);
    if (i < M) {
        float acc = (float)i;
        int lo = 0;
        for (` + loop + `) {
            acc += A[` + index + `] * x[j];
        }
        y[i] = acc;
    }
}`
}

var (
	colSrc        = colKernel("int j = 0; j < M; j++", "j * N + i")
	colSwappedSrc = colKernel("int j = 0; j < M; j++", "N * j + i")
	colDownSrc    = colKernel("int j = M - 1; j >= lo; j--", "j * N + i")
	colDiagSrc    = colKernel("int j = 0; j < M; j++", "j * N + j")
)

// runCol runs one of the column-walk kernels over an aLen-element matrix
// with row stride n and m rows, sequentially, and returns the executor,
// the output and the run's error.
func runCol(t *testing.T, src string, engine Engine, aLen, n, m int) (*Exec, []float32, error) {
	t.Helper()
	ex := newExec(t, src, "col")
	ex.Engine, ex.Parallelism = engine, Sequential
	A, x, y := NewFloatBuffer(aLen), NewFloatBuffer(m), NewFloatBuffer(m)
	for i := range A.F32 {
		A.F32[i] = float32(i%11)*0.3 - 1.2
	}
	for i := range x.F32 {
		x.F32[i] = float32(i%5)*0.7 - 0.9
	}
	if err := ex.Bind(BufArg(A), BufArg(x), BufArg(y), IntArg(int64(n)), IntArg(int64(m))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(32, 8)); err != nil {
		t.Fatal(err)
	}
	return ex, y.F32, ex.Run()
}

// TestFusedLoopColumnWalk: the fused loop's closed form serves an index
// the induction variable multiplies into, bit-identical to the closure
// engine in buffers and profile; where the walk leaves the matrix, or the
// stride takes the product out of int32, it declines, and the unfused
// body reports the closure engine's trap with its counters. A downward
// walk, whose X index falls, is a shape the closed form has no loop for:
// it runs the unfused body too.
func TestFusedLoopColumnWalk(t *testing.T) {
	const m = 24
	cases := []struct {
		name, src string
		aLen, n   int
		closed    bool // the closed form serves the loops
		trap      bool
	}{
		{"in range", colSrc, 40 * m, 40, true, false},
		{"multiplicands swapped", colSwappedSrc, 40 * m, 40, true, false},
		{"negative step", colDownSrc, 40 * m, 40, false, false},
		{"induction in multiply and addend", colDiagSrc, 40 * m, 40, true, false},
		{"matrix too small", colSrc, 40 * m / 2, 40, false, true},
		{"product leaves int32", colSrc, 40 * m, 1 << 30, false, true},
	}
	for _, c := range cases {
		bc, got, gotErr := runCol(t, c.src, EngineBytecode, c.aLen, c.n, m)
		if fused, ops := fusedHeads(t, bc); fused == 0 {
			t.Fatalf("%s: lowered without a fused FMA loop (opcodes:%s)", c.name, ops)
		}
		ref, want, wantErr := runCol(t, c.src, EngineClosures, c.aLen, c.n, m)
		if (gotErr != nil) != c.trap || (wantErr != nil) != c.trap {
			t.Fatalf("%s: errors %v / %v, want trap=%v", c.name, gotErr, wantErr, c.trap)
		}
		if c.trap && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: trap %q, the closure engine reports %q", c.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: output diverges from the closure engine:\n got %v\nwant %v", c.name, got, want)
		}
		gotProf, wantProf := bc.Stats(), ref.Stats()
		gotProf.Engine, wantProf.Engine = 0, 0
		if !reflect.DeepEqual(gotProf, wantProf) {
			t.Errorf("%s: profile diverges:\n got %+v\nwant %+v", c.name, gotProf, wantProf)
		}
		if served := bc.seq.affineLoops > 0; served != c.closed {
			t.Errorf("%s: closed form served %d loops, want served=%v", c.name, bc.seq.affineLoops, c.closed)
		}
	}
}

// syr2kSrc is Polybench's SYR2K: two scaled terms per k on one
// accumulator.
const syr2kSrc = `
__kernel void syr2k(__global float* A, __global float* B,
                    __global float* C, float alpha, float beta, int N)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < N && j < N) {
        float acc = C[i * N + j] * beta;
        for (int k = 0; k < N; k++) {
            acc += alpha * A[i * N + k] * B[j * N + k];
            acc += alpha * B[i * N + k] * A[j * N + k];
        }
        C[i * N + j] = acc;
    }
}`

// BenchmarkFusedLoop times one profiled Run of a kernel whose inner loop
// is the fused FMA loop, one sub-benchmark per shape the closed form
// distinguishes: a 128x128 matrix-vector row walk (A[i*N + j]) and
// column walk (A[j*N + i]), GESUMMV's two accumulators, and a 64x64
// SYR2K, whose two scaled terms share one accumulator. column-unprofiled
// is the managed launch's functional run of ATAX2's shape: an unprofiled
// 1024x1024 column walk in work-groups of 256 on every core, whose
// work-items park and walk their columns in blocks (park.go).
func BenchmarkFusedLoop(b *testing.B) {
	const n, sn, ln = 128, 64, 1024
	A, B, C := NewFloatBuffer(n*n), NewFloatBuffer(n*n), NewFloatBuffer(sn*sn)
	x, y := NewFloatBuffer(n), NewFloatBuffer(n)
	matVec := []Arg{BufArg(A), BufArg(x), BufArg(y), IntArg(n), IntArg(n)}
	for _, c := range []struct {
		name, src, kernel string
		args              []Arg
		nd                NDRange
		unprofiled        bool
	}{
		{"row", colKernel("int j = 0; j < M; j++", "i * N + j"), "col", matVec, ND1(n, 64), false},
		{"column", colSrc, "col", matVec, ND1(n, 64), false},
		{"column-unprofiled", colSrc, "col", []Arg{BufArg(filledF32(ln * ln)), BufArg(filledF32(ln)),
			BufArg(NewFloatBuffer(ln)), IntArg(ln), IntArg(ln)}, ND1(ln, 256), true},
		{"gesummv", gesummvSrc, "gesummv",
			[]Arg{BufArg(A), BufArg(B), BufArg(x), BufArg(y), FloatArg(1.5), FloatArg(0.5), IntArg(n)}, ND1(n, 64), false},
		{"syr2k", syr2kSrc, "syr2k",
			[]Arg{BufArg(A), BufArg(B), BufArg(C), FloatArg(1.1), FloatArg(0.9), IntArg(sn)}, ND2(sn, sn, 8, 8), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			prog, err := clc.Compile(c.src)
			if err != nil {
				b.Fatal(err)
			}
			ex, err := NewExec(prog.Kernel(c.kernel))
			if err != nil {
				b.Fatal(err)
			}
			if !c.unprofiled {
				ex.Parallelism = Sequential
			}
			if err := ex.Bind(c.args...); err != nil {
				b.Fatal(err)
			}
			if err := ex.Launch(c.nd); err != nil {
				b.Fatal(err)
			}
			if fused, ops := fusedHeads(b, ex); fused == 0 {
				b.Fatalf("lowered without a fused FMA loop (opcodes:%s)", ops)
			}
			run := ex.Run
			if c.unprofiled {
				seg := []Segment{{Count: c.nd.TotalGroups()}}
				run = func() error { return ex.RunUnprofiled(seg) }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.ResetStats()
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			if c.unprofiled && ParkedItems(ex) == 0 {
				b.Fatal("no work-item of the unprofiled column walk parked")
			}
		})
	}
}

// filledF32 is an n-element buffer of small nonzero values: a buffer left
// zero may be backed by one shared page, which would keep a walk over it
// in cache.
func filledF32(n int) *Buffer {
	b := NewFloatBuffer(n)
	for i := range b.F32 {
		b.F32[i] = float32(i%13)*0.25 - 1.5
	}
	return b
}
