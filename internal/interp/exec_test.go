package interp

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"dopia/internal/access"
	"dopia/internal/clc"
)

func compileKernelSrc(t *testing.T, src, name string) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %q not found", name)
	}
	return k
}

func newExec(t *testing.T, src, name string) *Exec {
	t.Helper()
	ex, err := NewExec(compileKernelSrc(t, src, name))
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	return ex
}

const vaddSrc = `
__kernel void vadd(__global float* a, __global float* b, __global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}`

func TestVectorAdd(t *testing.T) {
	ex := newExec(t, vaddSrc, "vadd")
	n := 64
	a := NewFloatBuffer(n)
	b := NewFloatBuffer(n)
	c := NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		a.F32[i] = float32(i)
		b.F32[i] = float32(2 * i)
	}
	if err := ex.Bind(BufArg(a), BufArg(b), BufArg(c), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if c.F32[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, c.F32[i], 3*i)
		}
	}
	p := ex.Stats()
	if p.ItemsRun != int64(n) || p.GroupsRun != 4 {
		t.Errorf("items=%d groups=%d", p.ItemsRun, p.GroupsRun)
	}
	if p.Loads != int64(2*n) || p.Stores != int64(n) {
		t.Errorf("loads=%d stores=%d, want %d/%d", p.Loads, p.Stores, 2*n, n)
	}
	if p.AluFloat != int64(n) { // one add per item
		t.Errorf("aluFloat=%d, want %d", p.AluFloat, n)
	}
}

const gesummvSrc = `
__kernel void gesummv(__global float* A, __global float* B,
                      __global float* x, __global float* y,
                      float alpha, float beta, int N)
{
    int i = get_global_id(0);
    if (i < N) {
        float tmp = 0.0f;
        float yv = 0.0f;
        for (int j = 0; j < N; j++) {
            tmp += A[i * N + j] * x[j];
            yv += B[i * N + j] * x[j];
        }
        y[i] = alpha * tmp + beta * yv;
    }
}`

func TestGesummvMatchesReference(t *testing.T) {
	n := 48
	ex := newExec(t, gesummvSrc, "gesummv")
	A := NewFloatBuffer(n * n)
	B := NewFloatBuffer(n * n)
	x := NewFloatBuffer(n)
	y := NewFloatBuffer(n)
	for i := 0; i < n*n; i++ {
		A.F32[i] = float32(i%7) * 0.5
		B.F32[i] = float32(i%5) * 0.25
	}
	for i := 0; i < n; i++ {
		x.F32[i] = float32(i%3) - 1
	}
	alpha, beta := float32(1.5), float32(0.5)
	if err := ex.Bind(BufArg(A), BufArg(B), BufArg(x), BufArg(y),
		FloatArg(float64(alpha)), FloatArg(float64(beta)), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var tmp, yv float32
		for j := 0; j < n; j++ {
			tmp += A.F32[i*n+j] * x.F32[j]
			yv += B.F32[i*n+j] * x.F32[j]
		}
		want := alpha*tmp + beta*yv
		if math.Abs(float64(y.F32[i]-want)) > 1e-3 {
			t.Fatalf("y[%d] = %v, want %v", i, y.F32[i], want)
		}
	}
}

func TestAccessPatternClassification(t *testing.T) {
	// A[i*N+j] within the j loop: continuous per iteration, stride N per
	// lane. x[j]: continuous per iteration, constant across lanes.
	n := 32
	ex := newExec(t, gesummvSrc, "gesummv")
	A := NewFloatBuffer(n * n)
	B := NewFloatBuffer(n * n)
	x := NewFloatBuffer(n)
	y := NewFloatBuffer(n)
	if err := ex.Bind(BufArg(A), BufArg(B), BufArg(x), BufArg(y),
		FloatArg(1), FloatArg(1), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	p := ex.Stats()
	bySite := map[int]SiteProfile{}
	for _, s := range p.Sites {
		bySite[s.Site] = s
	}
	// Site 0: A[i*N+j] load. Site 1: x[j]. Site 2: B[..]. Site 3: x[j]. Site 4: y[i] store.
	if s := bySite[0]; s.IterPattern != access.Continuous {
		t.Errorf("A iter pattern = %v, want continuous", s.IterPattern)
	}
	if s := bySite[0]; s.LanePattern != access.Strided || s.LaneStride != int64(n) {
		t.Errorf("A lane pattern = %v stride %d, want strided %d", s.LanePattern, s.LaneStride, n)
	}
	if s := bySite[1]; s.IterPattern != access.Continuous {
		t.Errorf("x iter pattern = %v, want continuous", s.IterPattern)
	}
	if s := bySite[1]; s.LanePattern != access.Constant {
		t.Errorf("x lane pattern = %v, want constant", s.LanePattern)
	}
	if s := bySite[4]; !s.Write || s.LanePattern != access.Continuous {
		t.Errorf("y site: write=%v lane=%v, want write continuous", s.Write, s.LanePattern)
	}
}

// TestSiteWriteFlag checks the store flag of each memory site: every site
// on g is written (by ++, --, op= or =, as a statement or as an operand)
// and the site on h is only read.
func TestSiteWriteFlag(t *testing.T) {
	for _, stmt := range []string{
		"g[i]++; x = h[i];", "--g[i]; x = h[i];", "x = g[i]-- + h[i];", "x = 1 + ++g[i] * h[i];",
		"g[i] += h[i];", "g[i] /= h[i];", "x = 2 * (g[i] %= h[i]);",
		"g[i] = h[i];", "x = 1 + (g[i] = h[i]);",
	} {
		src := "__kernel void k(__global int* g, __global int* h, __global int* out) {\n" +
			"\tint i = get_global_id(0);\n\tint x = 0;\n\t" + stmt + "\n\tout[i] = x;\n}\n"
		ex := newExec(t, src, "k")
		g, h, out := NewBuffer(clc.KindInt, 8), NewBuffer(clc.KindInt, 8), NewBuffer(clc.KindInt, 8)
		for j := range h.I32 {
			h.I32[j] = int32(j + 1)
		}
		if err := ex.Bind(BufArg(g), BufArg(h), BufArg(out)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(ND1(8, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		var seen [3]bool
		for _, s := range ex.Stats().Sites {
			seen[s.ArgIndex] = true
			if want := s.ArgIndex != 1; s.Write != want {
				t.Errorf("%s: site %d on argument %d has Write = %v, want %v", stmt, s.Site, s.ArgIndex, s.Write, want)
			}
		}
		if !seen[0] || !seen[1] {
			t.Errorf("%s: profile has no site on g or on h: %+v", stmt, ex.Stats().Sites)
		}
	}
}

const transposeSrc = `
__kernel void transp(__global float* in, __global float* out, int n) {
    int i = get_global_id(0);
    int j = get_global_id(1);
    if (i < n && j < n) {
        out[j * n + i] = in[i * n + j];
    }
}`

func Test2DTranspose(t *testing.T) {
	n := 24
	ex := newExec(t, transposeSrc, "transp")
	in := NewFloatBuffer(n * n)
	out := NewFloatBuffer(n * n)
	for i := range in.F32 {
		in.F32[i] = float32(i)
	}
	if err := ex.Bind(BufArg(in), BufArg(out), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND2(n, n, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if out.F32[j*n+i] != in.F32[i*n+j] {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
}

const localWorklistSrc = `
__kernel void dynwl(__global int* out) {
    __local int wl[1];
    if (get_local_id(0) == 0) wl[0] = 0;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int w = atomic_inc(wl); w < get_local_size(0); w = atomic_inc(wl)) {
        int idx = get_group_id(0) * get_local_size(0) + get_global_offset(0) + w;
        out[idx] = idx * 2;
    }
}`

func TestLocalWorklistAndBarrier(t *testing.T) {
	ex := newExec(t, localWorklistSrc, "dynwl")
	n := 64
	out := NewIntBuffer(n)
	if err := ex.Bind(BufArg(out)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out.I32[i] != int32(2*i) {
			t.Fatalf("out[%d] = %d, want %d", i, out.I32[i], 2*i)
		}
	}
}

func TestGlobalOffsetLaunch(t *testing.T) {
	ex := newExec(t, vaddSrc, "vadd")
	n := 64
	a := NewFloatBuffer(n)
	b := NewFloatBuffer(n)
	c := NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		a.F32[i] = 1
		b.F32[i] = float32(i)
	}
	if err := ex.Bind(BufArg(a), BufArg(b), BufArg(c), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	// Launch only the second half via a global offset.
	sub := ND1(n/2, 16)
	sub.Offset[0] = n / 2
	if err := ex.Launch(sub); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if c.F32[i] != 0 {
			t.Fatalf("c[%d] written but outside sub-range", i)
		}
	}
	for i := n / 2; i < n; i++ {
		if c.F32[i] != float32(i)+1 {
			t.Fatalf("c[%d] = %v, want %v", i, c.F32[i], float32(i)+1)
		}
	}
}

func TestRunSampled(t *testing.T) {
	ex := newExec(t, vaddSrc, "vadd")
	n := 256
	a, b, c := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	if err := ex.Bind(BufArg(a), BufArg(b), BufArg(c), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	run, err := ex.RunSampled(4)
	if err != nil {
		t.Fatal(err)
	}
	if run != 4 {
		t.Fatalf("sampled %d groups, want 4", run)
	}
	p := ex.Stats()
	if p.GroupsRun != 4 || p.ItemsRun != 64 {
		t.Errorf("groups=%d items=%d", p.GroupsRun, p.ItemsRun)
	}
	sc := p.Scale(4)
	if sc.ItemsRun != 256 || sc.Loads != 4*p.Loads {
		t.Errorf("scaled profile wrong: %+v", sc)
	}
}

const intOpsSrc = `
__kernel void intops(__global int* out, int a, int b) {
    int i = get_global_id(0);
    if (i == 0) {
        out[0] = a / b;
        out[1] = a % b;
        out[2] = a << 3;
        out[3] = a >> 1;
        out[4] = (a & b) | (a ^ b);
        out[5] = -a;
        out[6] = ~a;
        out[7] = a > b ? 100 : 200;
        out[8] = !b;
        uint u = (uint)a;
        out[9] = (int)(u >> 30);
    }
}`

func TestIntegerSemantics(t *testing.T) {
	ex := newExec(t, intOpsSrc, "intops")
	out := NewIntBuffer(10)
	if err := ex.Bind(BufArg(out), IntArg(-7), IntArg(2)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int32{
		-3,                              // C truncating division
		-1,                              // C remainder
		-7 << 3,                         // -56
		-7 >> 1,                         // arithmetic shift: -4
		(-7 & 2) | (-7 ^ 2),             // = 0 | -5 = -5
		7,                               // negation
		^int32(-7),                      // = 6
		200,                             // -7 > 2 false
		0,                               // !2
		int32(uint32(0xFFFFFFF9) >> 30), // logical shift of uint: 3
	}
	for i, w := range want {
		if out.I32[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, out.I32[i], w)
		}
	}
}

func TestInt32Wraparound(t *testing.T) {
	src := `__kernel void wrap(__global int* out, int big) {
        if (get_global_id(0) == 0) { out[0] = big * big; }
    }`
	ex := newExec(t, src, "wrap")
	out := NewIntBuffer(1)
	if err := ex.Bind(BufArg(out), IntArg(100000)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	big := int64(100000)
	want := int32(big * big) // wraps in 32 bits
	if out.I32[0] != want {
		t.Errorf("out[0] = %d, want %d", out.I32[0], want)
	}
}

func TestFloat32Rounding(t *testing.T) {
	src := `__kernel void f32(__global float* out) {
        if (get_global_id(0) == 0) {
            float a = 16777216.0f;
            out[0] = a + 1.0f;
        }
    }`
	ex := newExec(t, src, "f32")
	out := NewFloatBuffer(1)
	if err := ex.Bind(BufArg(out)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	// 2^24 + 1 is not representable in float32.
	if out.F32[0] != 16777216.0 {
		t.Errorf("float32 rounding not applied: %v", out.F32[0])
	}
}

func TestMathBuiltins(t *testing.T) {
	src := `__kernel void mth(__global float* out, float x, float y) {
        if (get_global_id(0) == 0) {
            out[0] = sqrt(x);
            out[1] = fabs(-x);
            out[2] = pow(x, y);
            out[3] = fmax(x, y);
            out[4] = exp(0.0f);
            out[5] = (float)max(3, 7);
            out[6] = (float)min(3, 7);
            out[7] = (float)abs(-9);
        }
    }`
	ex := newExec(t, src, "mth")
	out := NewFloatBuffer(8)
	if err := ex.Bind(BufArg(out), FloatArg(4), FloatArg(2)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 4, 16, 4, 1, 7, 3, 9}
	for i, w := range want {
		if out.F32[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.F32[i], w)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	t.Run("out of bounds", func(t *testing.T) {
		ex := newExec(t, vaddSrc, "vadd")
		a, b, c := NewFloatBuffer(4), NewFloatBuffer(4), NewFloatBuffer(4)
		// n larger than the buffers: work-item 4 indexes out of range.
		if err := ex.Bind(BufArg(a), BufArg(b), BufArg(c), IntArg(8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(ND1(8, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err == nil {
			t.Error("expected out-of-range error")
		}
	})
	t.Run("division by zero", func(t *testing.T) {
		src := `__kernel void dz(__global int* out, int d) {
            out[get_global_id(0)] = 10 / d;
        }`
		ex := newExec(t, src, "dz")
		out := NewIntBuffer(1)
		if err := ex.Bind(BufArg(out), IntArg(0)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(ND1(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err == nil {
			t.Error("expected division-by-zero error")
		}
	})
	t.Run("bad binding", func(t *testing.T) {
		ex := newExec(t, vaddSrc, "vadd")
		if err := ex.SetArg(0, IntArg(1)); err == nil {
			t.Error("expected error binding scalar to buffer param")
		}
		if err := ex.SetArg(3, BufArg(NewFloatBuffer(1))); err == nil {
			t.Error("expected error binding buffer to scalar param")
		}
		if err := ex.SetArg(0, BufArg(NewIntBuffer(4))); err == nil {
			t.Error("expected error binding int buffer to float*")
		}
	})
}

func TestIndirectAccessIsRandom(t *testing.T) {
	src := `__kernel void gather(__global float* out, __global float* in, __global int* idx, int n) {
        int i = get_global_id(0);
        if (i < n) {
            float s = 0.0f;
            for (int j = 0; j < 16; j++) {
                s += in[idx[i * 16 + j]];
            }
            out[i] = s;
        }
    }`
	ex := newExec(t, src, "gather")
	n := 32
	out := NewFloatBuffer(n)
	in := NewFloatBuffer(1024)
	idx := NewIntBuffer(n * 16)
	// Pseudo-random gather indices.
	state := uint32(12345)
	for i := range idx.I32 {
		state = state*1664525 + 1013904223
		idx.I32[i] = int32(state % 1024)
	}
	if err := ex.Bind(BufArg(out), BufArg(in), BufArg(idx), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	p := ex.Stats()
	var found bool
	for _, s := range p.Sites {
		if s.ArgIndex == 1 { // "in" buffer
			found = true
			if s.IterPattern != access.Random {
				t.Errorf("indirect access classified as %v, want random", s.IterPattern)
			}
		}
	}
	if !found {
		t.Fatal("no site profile for indirect buffer")
	}
}

func TestAddressSpacePlacement(t *testing.T) {
	as := &AddressSpace{}
	b1 := NewFloatBuffer(100)
	b2 := NewFloatBuffer(100)
	as.Place(b1)
	as.Place(b2)
	if b1.Base == 0 || b2.Base == 0 {
		t.Fatal("buffers not placed")
	}
	if b1.Base == b2.Base {
		t.Fatal("buffers alias")
	}
	if b2.Base < b1.Base+b1.Bytes() {
		t.Fatal("buffers overlap")
	}
	old := b1.Base
	as.Place(b1)
	if b1.Base != old {
		t.Fatal("re-placement moved buffer")
	}
}

// TestDefaultParallelismFollowsGOMAXPROCS: an Exec with Parallelism 0
// shards by the GOMAXPROCS of the moment it runs, not by whatever an
// earlier launch in the process saw, and at every setting its buffers
// and Profile are bit-identical to the Sequential run.
func TestDefaultParallelismFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n := 64
	run := func(par int) (*Exec, []float32, *Profile) {
		ex := newExec(t, gesummvSrc, "gesummv")
		ex.Parallelism = par
		A, B := NewFloatBuffer(n*n), NewFloatBuffer(n*n)
		x, y := NewFloatBuffer(n), NewFloatBuffer(n)
		for i := range A.F32 {
			A.F32[i], B.F32[i] = float32(i%7)*0.5, float32(i%5)*0.25
		}
		for i := range x.F32 {
			x.F32[i] = float32(i%3) - 1
		}
		if err := ex.Bind(BufArg(A), BufArg(B), BufArg(x), BufArg(y),
			FloatArg(1.5), FloatArg(0.5), IntArg(int64(n))); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(ND1(n, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		return ex, y.F32, ex.Stats()
	}
	_, wantY, wantProf := run(Sequential)
	for _, procs := range []int{1, 2, 1} {
		runtime.GOMAXPROCS(procs)
		ex, y, prof := run(0)
		if got := ex.parallelism(); got != procs {
			t.Errorf("GOMAXPROCS=%d: default Exec shards %d ways", procs, got)
		}
		if !reflect.DeepEqual(y, wantY) {
			t.Errorf("GOMAXPROCS=%d: output differs from the sequential run", procs)
		}
		if !reflect.DeepEqual(prof, wantProf) {
			t.Errorf("GOMAXPROCS=%d: profile differs from the sequential run\n got %+v\nwant %+v", procs, prof, wantProf)
		}
	}
}

// TestBytecodeRunSizesNoSlotScratch holds a fresh bytecode Exec's run to
// its own scratch: one integer and one float register row per work-item
// of a group plus a fixed overhead. The closure engine's per-work-item
// variable slots (another row per work-item) are sized only for a
// closure launch.
func TestBytecodeRunSizesNoSlotScratch(t *testing.T) {
	k := compileKernelSrc(t, vaddSrc, "vadd")
	const n = 256 // one work-group of n work-items
	a, b, c := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	run := func() {
		ex, err := NewExec(k)
		if err != nil {
			t.Fatal(err)
		}
		ex.Parallelism = 1
		if err := ex.Bind(BufArg(a), BufArg(b), BufArg(c), IntArg(n)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(ND1(n, n)); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		if eng, _ := ex.EngineUsed(); eng != EngineBytecode {
			t.Fatalf("ran on %v, want bytecode", eng)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs >= 2*n+n/2 {
		t.Errorf("a fresh bytecode run allocates %v times, want < %d (two register rows per work-item)", allocs, 2*n+n/2)
	}
}
