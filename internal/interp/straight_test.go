package interp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dopia/internal/clc"
)

// stencilKernel is a 2-D kernel over the n×n float matrices A and X that
// writes B at the work-item's own element; j and i are its column and
// row. The shapes size their subscripts with N, shift a branch with D,
// scale a tap by alpha, and wrap int32 with S·T ≡ 1 (mod 2³²), W = 2³¹−1
// and BIG = 2³⁰.
func stencilKernel(body string) string {
	return `
__kernel void st(__global float* A, __global float* X, __global float* B,
                 int N, int D, int S, int T, int W, int BIG, float alpha)
{
    int j = get_global_id(0);
    int i = get_global_id(1);
` + body + `
}`
}

// stencilTaps is 2DCONV's body with one literal coefficient of each kind
// (a float, a negative, a double literal, a negated parenthesised one, a
// subnormal, one that overflows on large taps) and two subtracted taps.
// Tap short (0-8) reads X instead of A; -1 reads A everywhere.
func stencilTaps(short int) string {
	taps := []string{
		"c1 * %s[(i - 1) * N + (j - 1)]", "c2 * %s[i * N + (j - 1)]", "c3 * %s[(i + 1) * N + (j - 1)]",
		"c4 * %s[(i - 1) * N + j]", "c5 * %s[i * N + j]", "c6 * %s[(i + 1) * N + j]",
		"c7 * %s[(i - 1) * N + (j + 1)]", "c8 * %s[i * N + (j + 1)]", "c9 * %s[(i + 1) * N + (j + 1)]",
	}
	var sum strings.Builder
	for t, tap := range taps {
		buf := "A"
		if t == short {
			buf = "X"
		}
		switch t {
		case 0:
		case 5, 7:
			sum.WriteString(" - ")
		default:
			sum.WriteString(" + ")
		}
		fmt.Fprintf(&sum, tap, buf)
	}
	return `
    if (i > 0 && i < N - 1 && j > 0 && j < N - 1) {
        float c1 = 0.2f; float c2 = -0.3f; float c3 = 0.4;
        float c4 = -(0.5f); float c5 = 0.6f; float c6 = 0.7f;
        float c7 = -0.8f; float c8 = 1e-40f; float c9 = 1.5e36f;
        B[i * N + j] = ` + sum.String() + `;
    }`
}

// straightShapes is every straight-line shape the lowering distinguishes,
// each with the opcodes it must lower to.
var straightShapes = []struct {
	name, body string
	ops        []opcode
}{
	{"3x3 stencil", stencilTaps(-1), []opcode{opLdOpF32, opTapF32, opJCmpIK}},
	{"load operands", `
    if (i < N - 1 && j < N - 1) {
        B[i * N + j] = A[i * N + j] - 0.7f * (X[i * N + (j + 1)] - X[i * N + j] +
            A[(i + 1) * N + j] * X[(i + 1) * N + j]) + A[(i + 1) * N + (j + 1)] - -X[(i * N + j) & 255];
    }`, []opcode{opLdGF32K, opLdOpF32, opStat}},
	{"wrapping subscripts", `
    if (j > 1 && j < N - 1 && i < N - 1) {
        float acc = X[i * N + j];
        B[(i + BIG) * N + j - BIG * N] = A[i * S * T * N + j + 1] * 0.5f + A[(i + BIG) * N + j - BIG * N] -
            X[j + W + W + 3 + i * N] + alpha * A[i * S * T * N + j - 1] + (acc - alpha * X[(i + 1) * N + j]);
    }`, []opcode{opLdOpF32, opTapF32}},
	{"bases across jump targets", `
    if (i < N - 1 && j < N - 1) {
        float v = 0.0f;
        if (j > D) {
            v = A[i * N + j + 1];
        }
        v = v + A[i * N + j];
        for (int k = 0; k < (j & 1); k++) {
            v = v - X[(i + 1) * N + j];
        }
        v = v * X[(i + 1) * N + j + 1];
        B[i * N + j] = v;
    }`, []opcode{opLdGF32K, opLdOpF32}},
	{"offset guards", `
    if ((i < N - 1 && j > 0 && j < N + 2147483647) || (i > N - 3 && j < N - 1)) {
        B[i * N + j] = A[i * N + j] + X[i * N + j];
    }`, []opcode{opJCmpIK}},
}

// straightInputs builds A and X for n×n matrices: finite values whose
// float32 and float64 sums round differently, subnormals and -0, and in A
// NaNs with payloads, the infinities, 3e38 and -0 on a grid four apart,
// so that no work-item's 3×3 window meets two of them.
func straightInputs(n int) (A, X []float32) {
	A, X = edgeFinite(n*n, 5), edgeFinite(n*n, 6)
	specials := []uint32{0x7fa00042, 0xff800000, 0xffc0beef, 0x7f800000, math.Float32bits(3e38), 0x80000000}
	k := 0
	for r := 2; r < n; r += 4 {
		for c := 2; c < n; c += 4 {
			A[r*n+c] = math.Float32frombits(specials[k%len(specials)])
			k++
		}
	}
	return A, X
}

// straightRun is one execution of a straight-line shape.
type straightRun struct {
	ex  *Exec
	out []uint32
	err error
}

// runStraight runs src over 16×16 inputs in 4×4 work-groups on engine,
// with A and X cut to aLen and xLen elements. The leg is "profiled" (Run)
// or "unprofiled" (RunUnprofiled, the managed launch's functional run).
func runStraight(t *testing.T, src string, engine Engine, shards int, leg string, aLen, xLen int) *straightRun {
	t.Helper()
	const n = 16
	ex := newExec(t, src, "st")
	ex.Engine, ex.Parallelism = engine, shards
	run := &straightRun{ex: ex}
	a, x := straightInputs(n)
	B := NewFloatBuffer(n * n)
	if err := ex.Bind(BufArg(&Buffer{F32: a[:aLen]}), BufArg(&Buffer{F32: x[:xLen]}), BufArg(B),
		IntArg(n), IntArg(3), IntArg(65537), IntArg(-65535), IntArg(math.MaxInt32), IntArg(1<<30),
		FloatArg(1.1)); err != nil {
		t.Fatal(err)
	}
	nd := ND2(n, n, 4, 4)
	if err := ex.Launch(nd); err != nil {
		t.Fatal(err)
	}
	if leg == "unprofiled" {
		run.err = ex.RunUnprofiled([]Segment{{Count: nd.TotalGroups()}})
	} else {
		run.err = ex.Run()
	}
	for _, v := range B.F32 {
		run.out = append(run.out, math.Float32bits(v))
	}
	return run
}

// diffStraight reports how got differs from the closure engine's run
// want; buffers is false for a trapping run on several shards, where how
// much the other shards wrote before stopping is timing.
func diffStraight(got, want *straightRun, buffers bool) string {
	switch {
	case fmt.Sprint(got.err) != fmt.Sprint(want.err):
		return fmt.Sprintf("error %v, the closure engine reports %v", got.err, want.err)
	case buffers && !reflect.DeepEqual(got.out, want.out):
		return fmt.Sprintf("output bits diverge:\n got %x\nwant %x", got.out, want.out)
	}
	gotProf, wantProf := got.ex.Stats(), want.ex.Stats()
	gotProf.Engine, wantProf.Engine = 0, 0
	if !reflect.DeepEqual(gotProf, wantProf) {
		return fmt.Sprintf("profile diverges:\n got %+v\nwant %+v", gotProf, wantProf)
	}
	return ""
}

// checkStraight runs src on both engines — profiled and unprofiled at 1,
// 2 and 3 shards — reports every divergence, and returns one bytecode
// executor of it.
func checkStraight(t *testing.T, name, src string, aLen, xLen int, trap bool) *Exec {
	t.Helper()
	var lowered *Exec
	for _, leg := range []string{"profiled", "unprofiled"} {
		for _, shards := range []int{1, 2, 3} {
			want := runStraight(t, src, EngineClosures, shards, leg, aLen, xLen)
			if (want.err != nil) != trap {
				t.Fatalf("%s: closure engine error %v", name, want.err)
			}
			got := runStraight(t, src, EngineBytecode, shards, leg, aLen, xLen)
			if eng, reason := got.ex.EngineUsed(); eng != EngineBytecode {
				t.Fatalf("%s: fell back to %v (%s)", name, eng, reason)
			}
			if d := diffStraight(got, want, !trap || shards == 1); d != "" {
				t.Errorf("%s, %s, %d shards: %s", name, leg, shards, d)
			}
			lowered = got.ex
		}
	}
	return lowered
}

// TestStraightLineEdgeValues runs every straight-line shape — shared
// subscript bases, load-operand ops, stencil taps, folded literals and
// offset guards — over edge values against the closure engine: output
// bits, profile and trap text, at 1, 2 and 3 shards. Each shape
// also runs with A and X cut short and with X of one element, and the
// stencil with a one-element buffer under each tap in turn, so that a
// trap lands on every kind of fused load, with its counts paid before the
// bounds check.
func TestStraightLineEdgeValues(t *testing.T) {
	const n = 16
	seen := map[opcode]bool{}
	for _, s := range straightShapes {
		src := stencilKernel(s.body)
		ex := checkStraight(t, s.name, src, n*n, n*n, false)
		for _, op := range s.ops {
			if opCount(ex, op) == 0 {
				t.Errorf("%s: lowered without %s", s.name, straightOps[op])
			}
			seen[op] = true
		}
		checkStraight(t, s.name+", A and X cut short", src, n*n-n-3, n*n-2*n, true)
		if strings.Contains(s.body, "X[") {
			checkStraight(t, s.name+", X of one element", src, n*n, 1, true)
		}
	}
	for op, name := range straightOps {
		if !seen[op] {
			t.Errorf("no shape lowers to %s", name)
		}
	}
	for tap := 0; tap < 9; tap++ {
		checkStraight(t, fmt.Sprintf("3x3 stencil, tap %d reads a one-element buffer", tap+1),
			stencilKernel(stencilTaps(tap)), n*n, 1, true)
	}
	// A base near 2³¹ plus its constant wraps negative, and must trap with
	// the unfused chain's index.
	checkStraight(t, "base plus constant wraps", stencilKernel(`
    if (i < N && j < N) {
        B[i * N + j] = 2.0f * A[i * N + j + BIG + 1073741824];
    }`), n*n, n*n, true)
}

// BenchmarkStencil times one unprofiled run — the managed launch's
// functional run — of the four straight-line Polybench kernels (2DCONV,
// FDTD1-3) at 128² in 16×16 work-groups, on one core. It fails when the
// lowered program holds no fused tap or load-operand op.
func BenchmarkStencil(b *testing.B) {
	const n = 128
	fdtd := func(body string) string {
		return `__kernel void k(__global float* ex, __global float* ey, __global float* hz,
                __global float* fict, int t, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
` + body + `
}`
	}
	A, B, C, fict := NewFloatBuffer(n*n), NewFloatBuffer(n*n), NewFloatBuffer(n*n), NewFloatBuffer(n)
	for i := range A.F32 {
		A.F32[i], B.F32[i], C.F32[i] = float32(i%7)*0.25, float32(i%5)*0.5, float32(i%3)*0.125
	}
	fdtdArgs := []Arg{BufArg(A), BufArg(B), BufArg(C), BufArg(fict), IntArg(0), IntArg(n), IntArg(n)}
	for _, c := range []struct {
		name, src string
		args      []Arg
	}{
		{"2dconv", `__kernel void k(__global float* A, __global float* B, int NI, int NJ) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i > 0 && i < NI - 1 && j > 0 && j < NJ - 1) {
        float c11 = 0.2f; float c12 = -0.3f; float c13 = 0.4f;
        float c21 = 0.5f; float c22 = 0.6f;  float c23 = 0.7f;
        float c31 = -0.8f; float c32 = -0.9f; float c33 = 0.1f;
        B[i * NJ + j] =
            c11 * A[(i - 1) * NJ + (j - 1)] + c12 * A[i * NJ + (j - 1)] + c13 * A[(i + 1) * NJ + (j - 1)] +
            c21 * A[(i - 1) * NJ + j]       + c22 * A[i * NJ + j]       + c23 * A[(i + 1) * NJ + j] +
            c31 * A[(i - 1) * NJ + (j + 1)] + c32 * A[i * NJ + (j + 1)] + c33 * A[(i + 1) * NJ + (j + 1)];
    }
}`, []Arg{BufArg(A), BufArg(B), IntArg(n), IntArg(n)}},
		{"fdtd1", fdtd(`    if (i < NX && j < NY) {
        if (i == 0) {
            ey[i * NY + j] = fict[t];
        } else {
            ey[i * NY + j] = ey[i * NY + j] - 0.5f * (hz[i * NY + j] - hz[(i - 1) * NY + j]);
        }
    }`), fdtdArgs},
		{"fdtd2", fdtd(`    if (i < NX && j > 0 && j < NY) {
        ex[i * NY + j] = ex[i * NY + j] - 0.5f * (hz[i * NY + j] - hz[i * NY + (j - 1)]);
    }`), fdtdArgs},
		{"fdtd3", fdtd(`    if (i < NX - 1 && j < NY - 1) {
        hz[i * NY + j] = hz[i * NY + j] - 0.7f *
            (ex[i * NY + (j + 1)] - ex[i * NY + j] + ey[(i + 1) * NY + j] - ey[i * NY + j]);
    }`), fdtdArgs},
	} {
		b.Run(c.name, func(b *testing.B) {
			prog, err := clc.Compile(c.src)
			if err != nil {
				b.Fatal(err)
			}
			ex, err := NewExec(prog.Kernel("k"))
			if err != nil {
				b.Fatal(err)
			}
			ex.Parallelism = Sequential
			if err := ex.Bind(c.args...); err != nil {
				b.Fatal(err)
			}
			nd := ND2(n, n, 16, 16)
			if err := ex.Launch(nd); err != nil {
				b.Fatal(err)
			}
			if opCount(ex, opTapF32, opLdOpF32) == 0 {
				b.Fatal("lowered without a fused tap or load-operand op")
			}
			seg := []Segment{{Count: nd.TotalGroups()}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.RunUnprofiled(seg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
