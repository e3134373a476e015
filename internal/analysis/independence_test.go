package analysis

import (
	"reflect"
	"strings"
	"testing"

	"dopia/internal/clc"
)

// facts builds LaunchFacts for a 1-D or 2-D launch: scalars by slot,
// buffer identities by slot (0 = scalar), groups and local sizes.
func facts(scalars []int64, bufs []int, groups, local [2]int) LaunchFacts {
	return LaunchFacts{
		Scalars:   scalars,
		BufferID:  bufs,
		NumGroups: [3]int{groups[0], groups[1], 1},
		Local:     [3]int{local[0], local[1], 1},
	}
}

func TestWorkGroupIndependence(t *testing.T) {
	// One 1-D launch shape for most cases: 16 groups of 64, n = 1024.
	g1, l1 := [2]int{16, 1}, [2]int{64, 1}
	cases := []struct {
		name string
		src  string // body of `__kernel void k(__global float* a, __global float* b, __global int* idx, int n)`
		lf   LaunchFacts
		want string // "" = independent, else a substring of the reason
	}{
		{
			name: "own element, read-modify-write",
			src:  `int i = get_global_id(0); if (i < n) { a[i] = a[i] * 2.0f + b[i]; }`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
		},
		{
			name: "row reduction into own element",
			src: `int i = get_global_id(0); float acc = 0.0f;
			      for (int j = 0; j < n; j++) { acc += b[i * n + j]; } a[i] = acc;`,
			lf: facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
		},
		{
			name: "neighbour load of a stored buffer",
			src:  `int i = get_global_id(0); if (i + 1 < n) { a[i] = a[i + 1] + 1.0f; }`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "a is loaded at an index other than the one it is stored at",
		},
		{
			name: "constant load of a stored buffer",
			src:  `int i = get_global_id(0); a[i] = a[n] + b[i];`,
			lf:   facts([]int64{0, 0, 0, 7}, []int{1, 2, 3, 0}, g1, l1),
			want: "a is loaded at an index other than",
		},
		{
			name: "indirect store",
			src:  `int i = get_global_id(0); a[idx[i]] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "a is stored at a data-dependent or non-affine index",
		},
		{
			name: "divided store index",
			src:  `int i = get_global_id(0); a[i / 2] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "data-dependent or non-affine",
		},
		{
			name: "constant store index",
			src:  `int i = get_global_id(0); a[n] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 5}, []int{1, 2, 3, 0}, g1, l1),
			want: "does not vary across work-groups",
		},
		{
			name: "local-id store index repeats in every group",
			src:  `int i = get_local_id(0); a[i] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "does not vary across work-groups",
		},
		{
			name: "group-id index has no launch-wide value",
			src:  `int i = get_group_id(0) * 64 + get_local_id(0); a[i] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "data-dependent or non-affine",
		},
		{
			name: "loop-carried offset the linear forms cannot see",
			src: `int i = get_global_id(0); int p = i;
			      for (int j = 0; j < 4; j++) { a[p] = b[i]; p += 1; }`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "data-dependent or non-affine",
		},
		{
			name: "overlapping windows",
			src:  `int i = get_global_id(0); for (int j = 0; j < 4; j++) { a[i + j] = b[i]; }`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "not provably distinct across work-items",
		},
		{
			name: "disjoint windows",
			src:  `int i = get_global_id(0); for (int j = 0; j < 4; j++) { a[i * 4 + j] = b[i]; }`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
		},
		{
			name: "window as wide as a parameter says",
			src:  `int i = get_global_id(0); for (int j = 0; j < n; j++) { a[i * 4 + j] = b[i]; }`,
			lf:   facts([]int64{0, 0, 0, 5}, []int{1, 2, 3, 0}, g1, l1),
			want: "not provably distinct",
		},
		{
			name: "data-dependent loop bound on a loop the store ignores",
			src: `int i = get_global_id(0); float acc = 0.0f;
			      for (int j = idx[i]; j < idx[i + 1]; j++) { acc += b[j]; } a[i] = acc;`,
			lf: facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
		},
		{
			name: "data-dependent loop bound on a loop the store uses",
			src:  `int i = get_global_id(0); for (int j = 0; j < idx[i]; j++) { a[i * 4 + j] = b[i]; }`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "loop with unknown bounds",
		},
		{
			name: "row-major 2-D with the pitch as wide as the range",
			src:  `int j = get_global_id(0); int i = get_global_id(1); a[i * n + j] = b[i * n + j];`,
			lf:   facts([]int64{0, 0, 0, 64}, []int{1, 2, 3, 0}, [2]int{8, 8}, [2]int{8, 8}),
		},
		{
			name: "row-major 2-D with a pitch narrower than the range",
			src:  `int j = get_global_id(0); int i = get_global_id(1); a[i * n + j] = b[i * n + j];`,
			lf:   facts([]int64{0, 0, 0, 48}, []int{1, 2, 3, 0}, [2]int{8, 8}, [2]int{8, 8}),
			want: "not provably distinct",
		},
		{
			name: "two parameters bound to one buffer at different indices",
			src:  `int i = get_global_id(0); a[i] = b[i + 1];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 1, 3, 0}, g1, l1),
			want: "a is loaded at an index other than",
		},
		{
			name: "the same kernel on distinct buffers",
			src:  `int i = get_global_id(0); a[i] = b[i + 1];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
		},
		{
			name: "two stores through different indices",
			src:  `int i = get_global_id(0); a[2 * i] = b[i]; a[2 * i + 1] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "a is stored at two different indices",
		},
		{
			name: "branches that disagree on the index",
			src:  `int i = get_global_id(0); int p = i; if (b[i] > 0.0f) { p = i + 1; } a[p] = 1.0f;`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "data-dependent or non-affine",
		},
		{
			name: "float round trip of the index",
			src:  `float f = (float)get_global_id(0); int i = (int)f; a[i] = b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "data-dependent or non-affine",
		},
		{
			name: "global atomics",
			src:  `int i = get_global_id(0); a[i] = (float)atomic_inc(idx);`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "global atomics",
		},
	}
	for _, c := range cases {
		src := "__kernel void k(__global float* a, __global float* b, __global int* idx, int n) {\n" + c.src + "\n}"
		got := WorkGroupIndependence(mustCompile(t, src)).OrderSensitive(c.lf)
		switch {
		case c.want == "" && got != "":
			t.Errorf("%s: pinned (%s), want independent", c.name, got)
		case c.want != "" && !strings.Contains(got, c.want):
			t.Errorf("%s: reason %q, want one containing %q", c.name, got, c.want)
		}
	}
}

// TestWorkItemIndependence covers the predicate one level down: a
// launch's work-items are independent only when, besides its work-groups,
// no two items of one group store to one element.
func TestWorkItemIndependence(t *testing.T) {
	g1, l1 := [2]int{16, 1}, [2]int{64, 1}
	cases := []struct {
		name, src string
		lf        LaunchFacts
		want      string // "" = independent, else a substring of the reason
		groups    bool   // the work-groups are independent all the same
	}{
		{
			name:   "global-id store",
			src:    `int i = get_global_id(0); a[i] = b[i] * 2.0f;`,
			lf:     facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			groups: true,
		},
		{
			name:   "column walk into the own element",
			src:    `int i = get_global_id(0); float acc = a[i]; for (int j = 0; j < n; j++) { acc += b[j * n + i]; } a[i] = acc;`,
			lf:     facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			groups: true,
		},
		{
			name: "group-id store",
			src:  `a[get_group_id(0)] = b[get_global_id(0)];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "data-dependent or non-affine",
		},
		{
			name:   "local coefficient 0 on a 2-D group",
			src:    `int j = get_global_id(0); a[j] = b[j];`,
			lf:     facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, [2]int{16, 1}, [2]int{8, 8}),
			want:   "does not vary across the work-items of a group",
			groups: true,
		},
		{
			name: "load of a stored buffer at another index",
			src:  `int i = get_global_id(0); a[i] = a[i + 1] + b[i];`,
			lf:   facts([]int64{0, 0, 0, 1024}, []int{1, 2, 3, 0}, g1, l1),
			want: "a is loaded at an index other than the one it is stored at",
		},
	}
	for _, c := range cases {
		src := "__kernel void k(__global float* a, __global float* b, __global int* idx, int n) {\n" + c.src + "\n}"
		in := WorkGroupIndependence(mustCompile(t, src))
		got := in.ItemOrderSensitive(c.lf)
		switch {
		case c.want == "" && got != "":
			t.Errorf("%s: items pinned (%s), want independent", c.name, got)
		case c.want != "" && !strings.Contains(got, c.want):
			t.Errorf("%s: reason %q, want one containing %q", c.name, got, c.want)
		}
		if groups := in.OrderSensitive(c.lf); (groups == "") != c.groups {
			t.Errorf("%s: work-group verdict %q, want independent=%v", c.name, groups, c.groups)
		}
	}
}

// TestExactValuesLeaveClassificationAlone: the exact walk tracks values
// beside the abstract forms and must never change a Table-1 class — a
// join of i and i+1 is still one linear form to the classifier — so the
// exact and the plain walk of one kernel classify every site alike.
func TestExactValuesLeaveClassificationAlone(t *testing.T) {
	k := mustCompile(t, `__kernel void k(__global float* a, __global float* b, int n) {
		int i = get_global_id(0);
		int p = i;
		if (n > 3) { p = i + 1; }
		for (int j = 0; j < n; j++) { p += 1; a[p] = b[i * n + j]; }
	}`)
	plain, err := runAnalysis(k, false)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := runAnalysis(k, true)
	if err != nil {
		t.Fatal(err)
	}
	exact.indep = Independence{}
	plain.indep = Independence{}
	if !reflect.DeepEqual(plain, exact) {
		t.Errorf("exact walk classifies differently:\nplain %+v\nexact %+v", plain, exact)
	}
}

func TestPolyArithmetic(t *testing.T) {
	i, n := varPoly(pvar{varGlobalID, 0}), varPoly(pvar{varParam, 3})
	// (i + 1) * n - n == i * n
	lhs := addPoly(mulPoly(addPoly(i, constPoly(1), false), n), n, true)
	if !lhs.equal(mulPoly(i, n)) {
		t.Errorf("(i+1)*n - n = %v, want i*n", *lhs)
	}
	if mulPoly(n, i).equal(mulPoly(i, i)) {
		t.Error("n*i equals i*i")
	}
	if z := addPoly(i, i, true); z == nil || len(*z) != 0 {
		t.Errorf("i - i is not the zero polynomial")
	}
	if p := mulPoly(constPoly(1<<30), constPoly(4)); p != nil {
		t.Errorf("oversized coefficient survived: %v", *p)
	}
	if addPoly(nil, i, false) != nil || mulPoly(i, nil) != nil {
		t.Error("unknown operand produced a known result")
	}
}

// TestExportedPoly checks the atom polynomial the bytecode lowerer uses to
// split a subscript into a shared part and a constant offset.
func TestExportedPoly(t *testing.T) {
	i, j, n := AtomPoly(5), AtomPoly(4), AtomPoly(3)
	one := ConstPoly(1)
	// (i - 1)*n + (j + 1) splits into i*n + j - n and 1.
	p := i.Sub(one).Mul(n).Add(j.Add(one))
	rest, c := p.SplitConst()
	if c != 1 {
		t.Fatalf("constant term %d, want 1", c)
	}
	if want := i.Mul(n).Add(j).Sub(n); !rest.Equal(want) {
		t.Errorf("non-constant part %v, want %v", rest.Monomials(), want.Monomials())
	}
	d := rest.Sub(i.Mul(n).Add(j)).Monomials()
	if len(d) != 1 || d[0].K != -1 || len(d[0].Atoms) != 1 || d[0].Atoms[0] != 3 {
		t.Errorf("difference to i*n + j is %v, want -n", d)
	}
	if k, c := ConstPoly(7).SplitConst(); c != 7 || len(k.Monomials()) != 0 || !k.Known() {
		t.Errorf("constant split to %v + %d", k.Monomials(), c)
	}
	if (Poly{}).Known() || (Poly{}).Add(i).Known() || ConstPoly(1<<40).Known() {
		t.Error("unknown polynomial became known")
	}
}

func mustCompile(t *testing.T, src string) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog.Kernels[0]
}
