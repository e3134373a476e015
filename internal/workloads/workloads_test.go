package workloads

import (
	"math"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/transform"
)

func runWorkload(t *testing.T, w *Workload) *Instance {
	t.Helper()
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	inst, err := w.Setup()
	if err != nil {
		t.Fatalf("%s setup: %v", w.Name, err)
	}
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("%s exec: %v", w.Name, err)
	}
	if err := ex.Bind(inst.Args...); err != nil {
		t.Fatalf("%s bind: %v", w.Name, err)
	}
	if err := ex.Launch(inst.ND); err != nil {
		t.Fatalf("%s launch: %v", w.Name, err)
	}
	if err := ex.Run(); err != nil {
		t.Fatalf("%s run: %v", w.Name, err)
	}
	return inst
}

func TestSyntheticGridComplete(t *testing.T) {
	grid, err := SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 1224 {
		t.Fatalf("grid has %d workloads, want 1224 (Table 4)", len(grid))
	}
	names := map[string]bool{}
	patterns := map[string]bool{}
	for _, w := range grid {
		if names[w.Name] {
			t.Errorf("duplicate workload name %s", w.Name)
		}
		names[w.Name] = true
	}
	for _, p := range TablePatterns() {
		patterns[p.Pattern()] = true
	}
	if len(patterns) != 17 {
		t.Errorf("%d distinct patterns, want 17", len(patterns))
	}
}

// TestSyntheticGridBuiltOnce holds SyntheticGrid to its contract: every
// call returns the same workloads, each in a slice of its own.
func TestSyntheticGridBuiltOnce(t *testing.T) {
	a, err := SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("two calls returned %d and %d workloads", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload %d (%s) was generated twice", i, a[i].Name)
		}
	}
	a[0] = nil
	if b[0] == nil {
		t.Error("two calls share one slice")
	}
}

func TestSyntheticNames(t *testing.T) {
	s := SynthSpec{Alpha: 2, MatDims: 3, Gamma: 2, Transposed: 1, Random: 1, Constant: 1,
		WorkDim: 1, DType: clc.KindFloat, Size: 16384, WGSize: 64}
	want := "2mat3d2c1T1R1C.f32.d1.s16384.wg64"
	if got := s.Name(); got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	if got := s.Pattern(); got != "2mat3d2c1T1R1C" {
		t.Errorf("Pattern() = %q", got)
	}
}

// TestSyntheticFunctional executes a representative subset of the grid
// and checks each against a direct reference computation for the plain
// patterns.
func TestSyntheticFunctional(t *testing.T) {
	spec := SynthSpec{Alpha: 2, MatDims: 3, Gamma: 2, WorkDim: 1,
		DType: clc.KindFloat, Size: 16384, WGSize: 64}
	w, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	inst := runWorkload(t, w)
	// C = c1*c2*A + c1*c2*B elementwise.
	A := inst.Args[0].Buf.F32
	B := inst.Args[1].Buf.F32
	C := inst.Args[2].Buf.F32
	c1 := float32(1.125)
	c2 := float32(1.25)
	for i := 0; i < len(C); i += 997 {
		want := c1*c2*A[i] + c1*c2*B[i]
		if math.Abs(float64(C[i]-want)) > 1e-4 {
			t.Fatalf("C[%d] = %v, want %v", i, C[i], want)
		}
	}
}

// TestSyntheticVariantsRun executes one instance of every pattern (small
// size) to verify the generated kernels are all executable.
func TestSyntheticVariantsRun(t *testing.T) {
	for _, pat := range TablePatterns() {
		for _, dim := range []int{1, 2} {
			for _, dtype := range []clc.Kind{clc.KindFloat, clc.KindInt} {
				s := pat
				s.WorkDim = dim
				s.DType = dtype
				s.Gamma = 2
				s.Size = 16384
				s.WGSize = 64
				w, err := s.Generate()
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				runWorkload(t, w)
			}
		}
	}
}

// TestSyntheticMalleable verifies the malleable GPU transform applies to
// every synthetic pattern and preserves semantics.
func TestSyntheticMalleable(t *testing.T) {
	for _, pat := range TablePatterns()[:6] {
		s := pat
		s.WorkDim = 1
		s.DType = clc.KindFloat
		s.Size = 16384
		s.WGSize = 64
		w, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		res, err := transform.MalleableGPU(k, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// Run original and malleable on identical inputs.
		instA, _ := w.Setup()
		instB, _ := w.Setup()
		run := func(kk *clc.Kernel, inst *Instance, extra ...interp.Arg) {
			ex, err := interp.NewExec(kk)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Bind(append(inst.Args, extra...)...); err != nil {
				t.Fatal(err)
			}
			if err := ex.Launch(inst.ND); err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(); err != nil {
				t.Fatal(err)
			}
		}
		run(k, instA)
		run(res.Kernel, instB, interp.IntArg(8), interp.IntArg(3))
		for _, oi := range instA.OutputArgs {
			if !instA.Args[oi].Buf.Equal(instB.Args[oi].Buf) {
				t.Fatalf("%s: malleable output differs at arg %d", w.Name, oi)
			}
		}
	}
}

func TestSpMVMatchesReference(t *testing.T) {
	w, err := buildSpMV(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	inst := runWorkload(t, w)
	// Rebuild the same matrix and inputs to compute the reference.
	m := RandomCSR(512, 512, 512/8, 42)
	x := inst.Args[3].Buf.F32
	want := SpMVReference(m, x)
	got := inst.Args[4].Buf.F32
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-3 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	w, err := buildPageRank(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	inst := runWorkload(t, w)
	g := RandomCSR(512, 512, 16, 77)
	rank := make([]float32, 512)
	for i := range rank {
		rank[i] = 1.0 / 512
	}
	outdeg := inst.Args[3].Buf.F32
	want := PageRankReference(g, rank, outdeg, 0.85)
	got := inst.Args[4].Buf.F32
	var sum float64
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-5 {
			t.Fatalf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
		sum += float64(got[i])
	}
	// Ranks stay a near-distribution (teleport mass preserved).
	if sum < 0.5 || sum > 1.5 {
		t.Errorf("rank mass = %v, want ~1", sum)
	}
}

func TestAllRealWorkloadsRun(t *testing.T) {
	ws, err := RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 14 {
		t.Fatalf("%d real workloads, want 14", len(ws))
	}
	for _, w := range ws {
		inst := runWorkload(t, w)
		if len(inst.OutputArgs) == 0 {
			t.Errorf("%s has no output args", w.Name)
		}
		// The analyzer must handle every kernel.
		k, _ := w.CompileKernel()
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Errorf("%s analyze: %v", w.Name, err)
			continue
		}
		if res.MemTotal() == 0 {
			t.Errorf("%s: no memory ops classified", w.Name)
		}
	}
}

func TestRealWorkloadsMalleable(t *testing.T) {
	ws, err := RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transform.MalleableGPU(k, w.WorkDim); err != nil {
			t.Errorf("%s not transformable: %v", w.Name, err)
		}
	}
}

func TestCSRGenerator(t *testing.T) {
	m := RandomCSR(100, 80, 10, 1)
	if m.Rows != 100 || m.Cols != 80 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[100]) != m.NNZ() {
		t.Fatal("rowptr endpoints wrong")
	}
	for r := 0; r < 100; r++ {
		if m.RowPtr[r+1] < m.RowPtr[r] {
			t.Fatal("rowptr not monotonic")
		}
		if m.RowPtr[r+1] == m.RowPtr[r] {
			t.Fatal("empty row generated; rows must have >= 1 nnz")
		}
	}
	for _, c := range m.ColIdx {
		if c < 0 || c >= 80 {
			t.Fatalf("column %d out of range", c)
		}
	}
	// Determinism.
	m2 := RandomCSR(100, 80, 10, 1)
	if m2.NNZ() != m.NNZ() || m2.ColIdx[5] != m.ColIdx[5] {
		t.Error("CSR generation not deterministic")
	}
}

func TestFillDeterminism(t *testing.T) {
	a := NewFilledFloat(100, 7)
	b := NewFilledFloat(100, 7)
	c := NewFilledFloat(100, 8)
	if !a.Equal(b) {
		t.Error("same seed must give same data")
	}
	if a.Equal(c) {
		t.Error("different seeds should differ")
	}
	for _, v := range a.F32 {
		if v < -1 || v >= 1 {
			t.Fatalf("fill value %v out of [-1,1)", v)
		}
	}
	iv := NewFilledInt(100, 3, 50)
	for _, v := range iv.I32 {
		if v < 0 || v >= 50 {
			t.Fatalf("int fill value %d out of [0,50)", v)
		}
	}
}

// TestFillIntsMatchesRemainder checks FillInts' reciprocal multiply
// against the remainder it replaces — each draw read as an int32, taken
// % mod, and lifted into [0, mod) — over many seeds and moduli: 1, small
// and prime ones, powers of two, the grid's sizes, the largest int32 and
// the non-positive moduli that mean 2³⁰.
func TestFillIntsMatchesRemainder(t *testing.T) {
	mods := []int32{1, 2, 3, 7, 50, 64, 97, 1000, 16384, 65536, 1 << 30, 1<<31 - 1, 0, -5, math.MinInt32}
	r := xorshift32(12345)
	for range 40 {
		mods = append(mods, int32(r.next()>>uint(r.next()%31))|1)
	}
	for _, mod := range mods {
		for seed := uint32(0); seed < 64; seed++ {
			b := interp.NewIntBuffer(4096)
			FillInts(b, seed, mod)
			m := mod
			if m <= 0 {
				m = 1 << 30
			}
			s := xorshift32(seed)
			for i, got := range b.I32 {
				want := int32(s.next()) % m
				if want < 0 {
					want += m
				}
				if got != want {
					t.Fatalf("mod %d seed %d element %d: got %d, want %d", mod, seed, i, got, want)
				}
			}
		}
	}
}
