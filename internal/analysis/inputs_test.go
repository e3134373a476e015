package analysis_test

import (
	"reflect"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/workloads"
)

// inputNames returns the parameter names of a kernel's ProfileInputs.
func inputNames(t *testing.T, k *clc.Kernel) []string {
	t.Helper()
	res, err := analysis.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, slot := range res.ProfileInputs {
		names = append(names, k.Params[slot].Name)
	}
	return names
}

// TestProfileInputsTaintPaths: one hand-written kernel per path a loaded
// value can take to the profile, and the paths that must not count.
func TestProfileInputsTaintPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		want []string
	}{
		{"direct index", `out[i] = x[idx[i]];`, []string{"idx"}},
		{"local variable", `int j = idx[i]; int m = j * 2 + 1; out[i] = x[m];`, []string{"idx"}},
		{"loop bound", `float acc = 0.0f;
			for (int k = 0; k < idx[i]; k++) { acc += x[k]; }
			out[i] = acc;`, []string{"idx"}},
		{"loop start", `float acc = 0.0f;
			for (int k = idx[i]; k < 8; k++) { acc += x[k]; }
			out[i] = acc;`, []string{"idx"}},
		{"while condition", `int k = 0; while (k < idx[0]) { k++; } out[i] = x[k];`, []string{"idx"}},
		{"do-while condition", `int k = 0; do { k++; } while (x[k] > 0.0f); out[i] = 1.0f;`, []string{"x"}},
		{"if condition", `if (x[i] > 0.5f) { out[i] = 1.0f; }`, []string{"x"}},
		{"ternary condition", `out[i] = x[i] > 0.0f ? y[i] : 2.0f;`, []string{"x"}},
		{"&& operand", `ires[i] = (idx[i] > 0) && (ival[i] > 0);`, []string{"idx", "ival"}},
		{"|| operand", `ires[i] = (idx[i] > 0) || (ival[i] > 0);`, []string{"idx", "ival"}},
		{"(int) cast of a float load", `out[(int)x[i]] = 1.0f;`, []string{"x"}},
		{"integer divisor", `ires[i] = ival[i] / idx[i];`, []string{"idx"}},
		{"integer remainder", `ires[i] = ival[i] % idx[i];`, []string{"idx"}},
		{"compound integer divisor", `int v = 100; v /= idx[i]; ires[i] = v;`, []string{"idx"}},
		{"private array round-trip", `int p[4]; p[1] = idx[i]; out[i] = x[p[1]];`, []string{"idx"}},
		{"atomic return as index", `int slot = atomic_inc(cnt); out[slot] = x[i];`, []string{"cnt"}},
		{"atomic operand reaches its target", `atomic_add(cnt, idx[i]); out[i] = x[atomic_inc(cnt)];`, []string{"idx", "cnt"}},
		{"buffer written and read back", `ires[i] = idx[i]; out[i] = x[ires[i]];`, []string{"idx", "ires"}},
		{"scalar parameter reassigned", `n = idx[0]; if (i < n) { out[i] = 1.0f; }`, []string{"idx"}},
		{"arithmetic only", `out[i] = x[i] * y[i] + sqrt(fabs(x[i])); ires[i] = ival[i] * 3 + idx[i];`, nil},
		{"float divisor", `out[i] = x[i] / y[i];`, nil},
		{"stored only", `ires[i] = ival[i];`, nil},
	} {
		src := `__kernel void k(__global int* idx, __global int* ival, __global int* ires,
			__global int* cnt, __global float* x, __global float* y, __global float* out, int n) {
			int i = get_global_id(0);
			` + tc.body + `
		}`
		prog, err := clc.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := append([]string{}, tc.want...) // in slot order
		if got := inputNames(t, prog.Kernel("k")); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ProfileInputs = %v, want %v", tc.name, got, want)
		}
	}
}

// TestProfileInputsLocalArray: a value that round-trips through a
// __local array across a barrier still reaches the index it feeds.
func TestProfileInputsLocalArray(t *testing.T) {
	prog, err := clc.Compile(`__kernel void k(__global int* idx, __global float* x, __global float* out) {
		__local int l[64];
		int lid = get_local_id(0);
		l[lid] = idx[get_global_id(0)];
		barrier(CLK_LOCAL_MEM_FENCE);
		out[get_global_id(0)] = x[l[63 - lid]];
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := inputNames(t, prog.Kernel("k")); !reflect.DeepEqual(got, []string{"idx"}) {
		t.Errorf("ProfileInputs = %v, want [idx]", got)
	}
}

// TestProfileInputsGolden pins the inputs of the fourteen real kernels and
// of the seventeen Table-4 patterns: the Polybench kernels and every
// affine pattern have none, the sparse kernels read their structure, and
// an R pattern reads its index matrix D.
func TestProfileInputsGolden(t *testing.T) {
	ws, err := workloads.RealWorkloads(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	sparse := map[string][]string{
		"PageRank": {"rowptr", "colidx"},
		"SpMV":     {"rowptr", "colidx"},
	}
	descs := workloads.RealDescs()
	for i, w := range ws {
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		want := sparse[descs[i].Name]
		if want == nil {
			want = []string{}
		}
		if got := inputNames(t, k); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ProfileInputs = %v, want %v", w.Name, got, want)
		}
	}
	for _, s := range workloads.TablePatterns() {
		s.DType, s.WorkDim, s.Size, s.WGSize = clc.KindFloat, 1, 16384, 64
		w, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{}
		if s.Random > 0 {
			want = []string{"D"}
		}
		if got := inputNames(t, k); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ProfileInputs = %v, want %v", s.Pattern(), got, want)
		}
	}
}
