package interp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// edgeKernel is a matrix kernel whose inner loop is one fused FMA shape
// over the N×N matrices A and B and the vector X. Each work-item starts
// its two accumulators from C, so edge values reach the accumulators too,
// and writes them to Y and Z; r is a second row for the SYR2K shape, and
// lo a register bound for a downward loop (a literal one would leave a
// constant load in the loop body, which no longer fuses).
func edgeKernel(loop, body string) string {
	return `
__kernel void edge(__global float* A, __global float* B, __global float* X, __global float* C,
                   __global float* Y, __global float* Z, float alpha, int N)
{
    int i = get_global_id(0);
    if (i < N) {
        int r = N - 1 - i;
        int lo = 0;
        float acc = C[i];
        float acc2 = C[N + i];
        for (` + loop + `) {
            ` + body + `
        }
        Y[i] = acc;
        Z[i] = acc2;
    }
}`
}

// edgeShapes is every shape the fused loop's closed form distinguishes,
// and the shapes fusion refuses. A strided shape is one the closed form
// has no loop for, so its fused loops run their generic body; a refused
// shape lowers to no fused loop head at all.
var edgeShapes = []struct {
	name, loop, body string
	strided, refused bool
}{
	{"row walk", "int j = 0; j < N; j++", "acc += A[i * N + j] * X[j];", false, false},
	{"column walk", "int j = 0; j < N; j++", "acc += A[j * N + i] * X[j];", false, false},
	{"invariant X", "int j = 0; j < N; j++", "acc += A[i * N + j] * X[i];", true, false},
	{"negative step", "int j = N - 1; j >= lo; j--", "acc += A[i * N + j] * X[j];", true, false},
	{"two accumulators", "int j = 0; j < N; j++",
		"acc += A[i * N + j] * X[j]; acc2 += B[i * N + j] * X[j];", false, false},
	{"scaled term", "int j = 0; j < N; j++", "acc += alpha * A[i * N + j] * X[j];", true, false},
	{"literal scale, column walk", "int j = 0; j < N; j++", "acc += 0.3f * A[j * N + i] * X[j];", true, false},
	{"two terms on one accumulator", "int j = 0; j < N; j++",
		"acc += alpha * A[i * N + j] * B[r * N + j]; acc += alpha * B[i * N + j] * A[r * N + j];", false, false},
	{"index through a temporary", "int j = 0; j < N; j++", "acc += A[(j + lo) * N + i] * X[j];", false, true},
	{"load through a variable", "int j = 0; j < N; j++", "float t = A[i * N + j]; acc += t * X[j];", false, true},
	{"scale from the other accumulator", "int j = 0; j < N; j++",
		"acc += A[i * N + j] * X[j]; acc2 += acc * B[i * N + j] * X[j];", false, true},
	{"scale from its own accumulator", "int j = 0; j < N; j++", "acc += acc * A[i * N + j] * X[j];", false, true},
	{"a third statement", "int j = 0; j < N; j++",
		"acc += A[i * N + j] * X[j]; acc2 += B[i * N + j] * X[j]; acc2 += X[j];", false, true},
	{"three terms", "int j = 0; j < N; j++",
		"acc += A[i * N + j] * X[j]; acc2 += B[i * N + j] * X[j]; acc += B[r * N + j] * X[j];", false, true},
}

// edgeFinite fills n floats with finite values: normal ones whose
// exponents spread wide enough that float32 and float64 running sums
// round differently, and one in nine a subnormal, -0 or a tiny power of
// two.
func edgeFinite(n int, seed uint32) []float32 {
	specials := []float32{
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x807fffff), // largest negative subnormal
		float32(math.Copysign(0, -1)),
		0x1p-13,
	}
	out := make([]float32, n)
	x := seed
	for i := range out {
		x = x*1664525 + 1013904223
		if (x>>8)%9 == 0 {
			out[i] = specials[(x>>20)%uint32(len(specials))]
			continue
		}
		v := float32(math.Ldexp(1+float64(x>>12&0xffff)/65536, int(x>>4&0xf)-8))
		if x&0x80000000 != 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// edgeInputs builds an edge kernel's A, B, X and C for n×n matrices. The
// NaNs (with payloads, quiet and signalling), the infinities and the
// overflowing 3e38 sit in rows 8-16 and columns 9-17 of A, one per row
// and column, and in C, whose rows 1-6 A keeps finite: every work-item of
// every shape meets at most one of them. Which NaN two NaN operands give
// is the hardware's operand order, which Go leaves to the compiler, so no
// value here depends on it. Row 6 of A is all -0 and starts from -0.
func edgeInputs(n int) (A, B, X, C []float32) {
	A, B, X, C = edgeFinite(n*n, 1), edgeFinite(n*n, 2), edgeFinite(n, 3), edgeFinite(2*n, 4)
	for _, s := range []struct {
		row, col int
		bits     uint32
	}{
		{8, 9, 0x7fa00042},   // signalling NaN with a payload
		{10, 11, 0xff800000}, // -Inf
		{12, 13, 0xffc0beef}, // negative quiet NaN with a payload
		{14, 15, 0x7f800000}, // +Inf
		{16, 17, math.Float32bits(3e38)},
	} {
		A[s.row*n+s.col] = math.Float32frombits(s.bits)
	}
	for j := 0; j < n; j++ {
		A[6*n+j] = float32(math.Copysign(0, -1))
	}
	for i, bits := range map[int]uint32{
		1: 0x7fc00001, 2: 0x80000000, 3: 0x7f800000, 4: 0xffa5a5a5, 6: 0x80000000, n + 5: 0x7fc0cafe,
	} {
		C[i] = math.Float32frombits(bits)
	}
	return A, B, X, C
}

// edgeRun is one execution of an edge kernel.
type edgeRun struct {
	ex  *Exec
	y   []uint32 // the bits of Y, then Z
	err error
}

func runEdge(t *testing.T, src string, engine Engine, shards, n, aLen int) *edgeRun {
	t.Helper()
	ex := newExec(t, src, "edge")
	ex.Engine, ex.Parallelism = engine, shards
	run := &edgeRun{ex: ex}
	a, b, x, c := edgeInputs(n)
	Y, Z := NewFloatBuffer(n), NewFloatBuffer(n)
	if err := ex.Bind(BufArg(&Buffer{F32: a[:aLen]}), BufArg(&Buffer{F32: b}), BufArg(&Buffer{F32: x}),
		BufArg(&Buffer{F32: c}), BufArg(Y), BufArg(Z),
		FloatArg(1.1), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 8)); err != nil {
		t.Fatal(err)
	}
	run.err = ex.Run()
	for _, v := range append(Y.F32, Z.F32...) {
		run.y = append(run.y, math.Float32bits(v))
	}
	return run
}

// diffEdge reports how got differs from the closure engine's run want.
// buffers is false for a trapping run on several shards: the shards
// after the failing one stop within a work-group quantum, so how much
// they wrote before stopping is timing, in either engine.
func diffEdge(got, want *edgeRun, buffers bool) string {
	switch {
	case fmt.Sprint(got.err) != fmt.Sprint(want.err):
		return fmt.Sprintf("error %v, the closure engine reports %v", got.err, want.err)
	case buffers && !reflect.DeepEqual(got.y, want.y):
		return fmt.Sprintf("output bits diverge:\n got %x\nwant %x", got.y, want.y)
	}
	gotProf, wantProf := got.ex.Stats(), want.ex.Stats()
	gotProf.Engine, wantProf.Engine = 0, 0
	if !reflect.DeepEqual(gotProf, wantProf) {
		return fmt.Sprintf("profile diverges:\n got %+v\nwant %+v", gotProf, wantProf)
	}
	return ""
}

// TestFusedLoopEdgeValues runs every fused-loop shape over edge values
// against the closure engine — output bits, profile and trap text — at 1,
// 2 and 3 shards: through the closed form where it has a loop for the
// shape, through the generic body where it has not, and as plain generic
// code where fusion refuses the loop; with A cut short, every shape
// traps. The values make a float64 accumulator rounded only
// at the loop's end read differently from the float32 one rounded after
// every add.
func TestFusedLoopEdgeValues(t *testing.T) {
	const n = 24
	for _, s := range edgeShapes {
		src := edgeKernel(s.loop, s.body)
		for _, aLen := range []int{n * n, n*n - n/2} {
			trap := aLen < n*n
			name := s.name
			if trap {
				name += ", A cut short"
			}
			for _, shards := range []int{1, 2, 3} {
				want := runEdge(t, src, EngineClosures, shards, n, aLen)
				if (want.err != nil) != trap {
					t.Fatalf("%s: closure engine error %v", name, want.err)
				}
				got := runEdge(t, src, EngineBytecode, shards, n, aLen)
				wantHeads := 1
				if s.refused {
					wantHeads = 0
				}
				if fused, ops := fusedHeads(t, got.ex); fused != wantHeads {
					t.Fatalf("%s: %d fused loop heads, want %d (opcodes:%s)", name, fused, wantHeads, ops)
				}
				if reason := got.ex.Stats().ShardPinReason; reason != "" {
					t.Fatalf("%s: pinned to one shard: %s", name, reason)
				}
				if d := diffEdge(got, want, !trap || shards == 1); d != "" {
					t.Errorf("%s, %d shards: %s", name, shards, d)
				}
				switch {
				case trap, s.refused:
				case s.strided && (UnfusedLoops(got.ex) == 0 || AffineLoops(got.ex) != 0):
					t.Errorf("%s, %d shards: the closed form served %d loops and the unfused body ran %d, want only the unfused body",
						name, shards, AffineLoops(got.ex), UnfusedLoops(got.ex))
				case !s.strided && AffineLoops(got.ex) == 0:
					t.Errorf("%s, %d shards: the closed form served no loop", name, shards)
				}
			}
		}
	}
}
