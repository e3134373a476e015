package transform

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
)

func compileOne(t *testing.T, src string) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog.Kernels[0]
}

const k1D = `
__kernel void sum3(__global float* A, __global float* B, __global float* C, int n) {
    int i = get_global_id(0);
    if (i < n) {
        C[i] = A[i] + B[i] + C[i];
    }
}`

const k1DReturn = `
__kernel void guarded(__global float* A, __global float* C, int n) {
    int i = get_global_id(0);
    if (i >= n) return;
    float acc = 0.0f;
    for (int j = 0; j < 8; j++) {
        acc += A[(i + j) % n];
    }
    C[i] = acc;
}`

const k2D = `
__kernel void addmat(__global float* A, __global float* B, __global float* C,
                     int ny, int nx) {
    int y = get_global_id(1);
    int x = get_global_id(0);
    if (y < ny && x < nx) {
        C[y * nx + x] = A[y * nx + x] + 2.0f * B[x * ny + y];
    }
}`

func TestMalleableSourceShape(t *testing.T) {
	k := compileOne(t, k1D)
	res, err := MalleableGPU(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"__local int __dopia_worklist[1]",
		"barrier(CLK_LOCAL_MEM_FENCE)",
		"get_local_id(0) % dop_gpu_mod < dop_gpu_alloc",
		"atomic_inc(__dopia_worklist)",
		"get_global_offset(0)",
	} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("malleable source missing %q:\n%s", want, res.Source)
		}
	}
	if got := len(res.Kernel.Params); got != len(k.Params)+2 {
		t.Errorf("param count = %d, want %d", got, len(k.Params)+2)
	}
	if res.Kernel.Params[len(k.Params)].Name != ParamMod {
		t.Errorf("missing %s param", ParamMod)
	}
}

// runKernel executes a kernel over fresh copies of the given buffers and
// returns the copies.
func runKernel(t *testing.T, k *clc.Kernel, nd interp.NDRange, bufs []*interp.Buffer,
	scalars []interp.Arg, extra ...interp.Arg) []*interp.Buffer {
	t.Helper()
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	clones := make([]*interp.Buffer, len(bufs))
	args := make([]interp.Arg, 0, len(bufs)+len(scalars)+len(extra))
	for i, b := range bufs {
		clones[i] = b.Clone()
		args = append(args, interp.BufArg(clones[i]))
	}
	args = append(args, scalars...)
	args = append(args, extra...)
	if err := ex.Bind(args...); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := ex.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return clones
}

func randomFloats(rng *rand.Rand, n int) *interp.Buffer {
	b := interp.NewFloatBuffer(n)
	for i := range b.F32 {
		b.F32[i] = rng.Float32()*4 - 2
	}
	return b
}

func TestMalleable1DEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := compileOne(t, k1D)
	res, err := MalleableGPU(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 96
	A, B, C := randomFloats(rng, n), randomFloats(rng, n), randomFloats(rng, n)
	nd := interp.ND1(n, 16)
	want := runKernel(t, orig, nd, []*interp.Buffer{A, B, C},
		[]interp.Arg{interp.IntArg(int64(n))})

	for _, cfg := range [][2]int64{{1, 1}, {8, 1}, {8, 3}, {8, 8}, {3, 2}, {16, 5}} {
		got := runKernel(t, res.Kernel, nd, []*interp.Buffer{A, B, C},
			[]interp.Arg{interp.IntArg(int64(n))},
			interp.IntArg(cfg[0]), interp.IntArg(cfg[1]))
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("mod=%d alloc=%d: buffer %d differs from original", cfg[0], cfg[1], i)
			}
		}
	}
}

func TestMalleableReturnRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orig := compileOne(t, k1DReturn)
	res, err := MalleableGPU(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	// n smaller than the global size so that the early return actually
	// fires in some work-items.
	n := 40
	A, C := randomFloats(rng, 64), randomFloats(rng, 64)
	nd := interp.ND1(64, 16)
	want := runKernel(t, orig, nd, []*interp.Buffer{A, C},
		[]interp.Arg{interp.IntArg(int64(n))})
	got := runKernel(t, res.Kernel, nd, []*interp.Buffer{A, C},
		[]interp.Arg{interp.IntArg(int64(n))},
		interp.IntArg(8), interp.IntArg(2))
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("buffer %d differs (return rewrite broken)", i)
		}
	}
}

func TestMalleable2DEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := compileOne(t, k2D)
	res, err := MalleableGPU(orig, 2)
	if err != nil {
		t.Fatal(err)
	}
	ny, nx := 24, 16
	A := randomFloats(rng, ny*nx)
	B := randomFloats(rng, ny*nx)
	C := randomFloats(rng, ny*nx)
	nd := interp.ND2(nx, ny, 8, 8)
	want := runKernel(t, orig, nd, []*interp.Buffer{A, B, C},
		[]interp.Arg{interp.IntArg(int64(ny)), interp.IntArg(int64(nx))})
	for _, cfg := range [][2]int64{{8, 1}, {8, 5}, {4, 4}} {
		got := runKernel(t, res.Kernel, nd, []*interp.Buffer{A, B, C},
			[]interp.Arg{interp.IntArg(int64(ny)), interp.IntArg(int64(nx))},
			interp.IntArg(cfg[0]), interp.IntArg(cfg[1]))
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("mod=%d alloc=%d: buffer %d differs", cfg[0], cfg[1], i)
			}
		}
	}
}

// TestMalleableChunkedDispatch verifies the malleable kernel computes the
// right global ids under a global offset, launched chunk by chunk as
// offset ranges of three work-groups.
func TestMalleableChunkedDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := compileOne(t, k1D)
	res, err := MalleableGPU(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 128
	A, B, C := randomFloats(rng, n), randomFloats(rng, n), randomFloats(rng, n)
	nd := interp.ND1(n, 16)
	want := runKernel(t, orig, nd, []*interp.Buffer{A, B, C},
		[]interp.Arg{interp.IntArg(int64(n))})

	// Execute the malleable kernel chunk by chunk over shared buffers.
	ex, err := interp.NewExec(res.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	gA, gB, gC := A.Clone(), B.Clone(), C.Clone()
	if err := ex.Bind(interp.BufArg(gA), interp.BufArg(gB), interp.BufArg(gC),
		interp.IntArg(int64(n)), interp.IntArg(8), interp.IntArg(4)); err != nil {
		t.Fatal(err)
	}
	total := nd.TotalGroups()
	for start := 0; start < total; start += 3 {
		count := 3
		if start+count > total {
			count = total - start
		}
		sub := interp.ND1(count*16, 16)
		sub.Offset[0] = start * 16
		if err := ex.Launch(sub); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range []*interp.Buffer{gA, gB, gC} {
		if !want[i].Equal(b) {
			t.Fatalf("chunked buffer %d differs", i)
		}
	}
}

func TestMalleableRejections(t *testing.T) {
	barSrc := `__kernel void kb(__global int* a) {
        barrier(CLK_LOCAL_MEM_FENCE);
        a[get_global_id(0)] = 1;
    }`
	if _, err := MalleableGPU(compileOne(t, barSrc), 1); err == nil {
		t.Error("expected rejection of kernel with barrier")
	}

	retLoop := `__kernel void kr(__global int* a, int n) {
        for (int i = 0; i < n; i++) {
            if (a[i] == 0) return;
            a[i] = 1;
        }
    }`
	if _, err := MalleableGPU(compileOne(t, retLoop), 1); err == nil {
		t.Error("expected rejection of return inside loop")
	}

	clash := `__kernel void kc(__global int* a, int dop_gpu_mod) {
        a[get_global_id(0)] = dop_gpu_mod;
    }`
	if _, err := MalleableGPU(compileOne(t, clash), 1); err == nil {
		t.Error("expected rejection of parameter name clash")
	}

	if _, err := MalleableGPU(compileOne(t, k1D), 3); err == nil {
		t.Error("expected rejection of 3-D transform")
	}
}

// TestReservedParameterNames checks that a parameter under the scaffold's
// reserved prefix is rejected like a local of that name: a pointer
// parameter named like the work counter or a rebuilt gid would be
// shadowed by the scaffold's int, and one named like the worklist would
// shadow it instead, so the form would store into the worklist.
func TestReservedParameterNames(t *testing.T) {
	for _, name := range []string{"__dopia_work", "__dopia_gid0", "__dopia_worklist"} {
		t.Run(name, func(t *testing.T) {
			src := `__kernel void kp(__global int* ` + name + `, int n) {
                int i = get_global_id(0);
                if (i < n) ` + name + `[i] = i;
            }`
			_, err := MalleableGPU(compileOne(t, src), 1)
			if err == nil || !strings.Contains(err.Error(), "uses reserved identifier "+name) {
				t.Fatalf("got %v, want a reserved-identifier rejection", err)
			}
			if faults.StageOf(err) != faults.StageTransform || !errors.Is(err, faults.ErrUnsupportedKernel) {
				t.Errorf("rejection not classified as an unsupported kernel at the transform stage: %v", err)
			}
		})
	}
}
