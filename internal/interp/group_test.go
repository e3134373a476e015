package interp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// groupLen is the length of the float A and int B that runGroupCase binds
// to a kernel g(A, B, n, s), with n = 5 and s = 1.5.
const groupLen = 512

// runGroupCase runs src's kernel g once on engine, profiled (Run) or
// unprofiled (RunUnprofiled, the managed launch's functional run), for
// diffWalk to compare.
func runGroupCase(t *testing.T, src string, nd NDRange, engine Engine, shards int, profiled bool) *walkRun {
	t.Helper()
	ex := newExec(t, src, "g")
	ex.Engine, ex.Parallelism = engine, shards
	A := &Buffer{F32: edgeFinite(groupLen, 7)}
	B := NewIntBuffer(groupLen)
	for i := range B.I32 {
		B.I32[i] = int32(i%11) - 3
	}
	if err := ex.Bind(BufArg(A), BufArg(B), IntArg(5), FloatArg(1.5)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatal(err)
	}
	run := &walkRun{ex: ex}
	if profiled {
		run.err = ex.Run()
	} else {
		run.err = ex.RunUnprofiled([]Segment{{Count: nd.TotalGroups()}})
	}
	var a, b []uint32
	for i := range A.F32 {
		a = append(a, math.Float32bits(A.F32[i]))
		b = append(b, uint32(B.I32[i]))
	}
	run.bufs = [][]uint32{a, b}
	return run
}

// checkGroup runs src on both engines, profiled and unprofiled at 1, 2 and
// 3 shards, and reports every divergence from the closure engine.
func checkGroup(t *testing.T, name, src string, nd NDRange, trap bool) {
	t.Helper()
	for _, profiled := range []bool{true, false} {
		for _, shards := range []int{1, 2, 3} {
			want := runGroupCase(t, src, nd, EngineClosures, shards, profiled)
			if (want.err != nil) != trap {
				t.Fatalf("%s: closure engine error %v, want trap=%v", name, want.err, trap)
			}
			got := runGroupCase(t, src, nd, EngineBytecode, shards, profiled)
			if d := diffWalk(got, want, !trap || shards == 1); d != "" {
				t.Errorf("%s, profiled=%v, %d shards: %s", name, profiled, shards, d)
			}
		}
	}
}

// groupKernel wraps body in the signature runGroupCase binds.
func groupKernel(body string) string {
	return `__kernel void g(__global float* A, __global int* B, int n, float s) {
` + body + `
}`
}

// TestGroupDispatchHazards runs the shapes that could tell a work-group run
// as one dispatch — one register row for a one-segment program, lid and
// gid stepped in place — from one dispatch per work-item, against the
// closure engine: buffers, profile and trap text, profiled and unprofiled,
// at 1, 2 and 3 shards.
func TestGroupDispatchHazards(t *testing.T) {
	cases := []struct {
		name string
		body string
		nd   NDRange
		trap bool
	}{
		{name: "a scalar parameter written, then read", body: `
    int i = get_global_id(0);
    B[i] = n;
    n = n + i;
    s = s * 2.0f;
    A[i] = s + (float)n;`, nd: ND1(64, 16)},
		{name: "a declaration without initialiser, assigned on some paths", body: `
    int i = get_global_id(0);
    float v;
    int k;
    if (i % 3 == 0) {
        v = A[i];
        k = i + 1;
    }
    A[i] = v + 1.0f;
    B[i] = k;`, nd: ND1(64, 16)},
		{name: "a private array written by some items, read by later ones", body: `
    int i = get_global_id(0);
    float p[4];
    int q[3];
    if (i % 3 == 0) {
        p[i % 4] = A[i];
        q[1] = i + 1;
    }
    A[i] = p[0] + p[1] + p[2] + p[3];
    B[i] = q[1];`, nd: ND1(64, 16)},
		{name: "an early return on odd gids", body: `
    int i = get_global_id(0);
    B[i] = i;
    if (i % 2 == 1) return;
    A[i] = A[i] * 2.0f;
    B[i] = -i;`, nd: ND1(64, 16)},
		{name: "3-D groups of {3, 5, 2} at a non-zero offset", body: `
    int x = get_global_id(0) - get_global_offset(0);
    int y = get_global_id(1) - get_global_offset(1);
    int z = get_global_id(2) - get_global_offset(2);
    int i = (z * get_global_size(1) + y) * get_global_size(0) + x;
    int d = i % 3;
    B[2 * i] = get_global_id(0) + 100 * get_global_id(1) + 10000 * get_global_id(2);
    B[2 * i + 1] = get_local_id(0) + 10 * get_local_id(1) + 100 * get_local_id(2) +
        1000 * (get_group_id(0) + 10 * get_group_id(1) + 100 * get_group_id(2));
    A[i] = (float)(get_global_id(d) * 7 + get_local_id(d));`,
			nd: NDRange{Dims: 3, Global: [3]int{6, 10, 4}, Local: [3]int{3, 5, 2}, Offset: [3]int{1, 2, 3}}},
		{name: "two segments, some items return before the barrier", body: `
    __local float tile[16];
    int l = get_local_id(0);
    int i = get_global_id(0);
    float keep = A[i];
    n = n + l;
    tile[l] = keep;
    if (i % 3 == 0) return;
    barrier(CLK_LOCAL_MEM_FENCE);
    A[i] = keep + tile[(l + 1) % 16];
    B[i] = n;`, nd: ND1(64, 16)},
		{name: "a trap in the middle item of a group", body: `
    int i = get_global_id(0);
    A[i] = A[i] + 1.0f;
    B[i + (i == 20 ? 100000 : 0)] = i;`, nd: ND1(64, 8), trap: true},
	}
	for _, c := range cases {
		checkGroup(t, c.name, groupKernel(c.body), c.nd, c.trap)
	}
}

// TestWorkItemDimsOutOfRange holds both engines to OpenCL 1.2 §6.12.1 for a
// dimension outside [0, 3): the id, group and offset queries read 0, the
// size and group-count queries 1, for a literal dimension (resolved when
// the kernel is lowered) and a dynamic one, a huge unsigned one included.
func TestWorkItemDimsOutOfRange(t *testing.T) {
	fns := []string{"get_global_id", "get_local_id", "get_group_id", "get_global_size",
		"get_local_size", "get_num_groups", "get_global_offset"}
	dims := []string{"3", "4", "5", "d"}
	var body strings.Builder
	fmt.Fprintf(&body, "    int i = get_global_id(0) * %d;\n", len(fns)*len(dims))
	var want []int32
	for _, f := range fns {
		v := int32(0)
		if strings.HasSuffix(f, "_size") || f == "get_num_groups" {
			v = 1
		}
		for _, d := range dims {
			fmt.Fprintf(&body, "    out[i + %d] = %s(%s);\n", len(want), f, d)
			want = append(want, v)
		}
	}
	src := "__kernel void g(__global int* out, uint d) {\n" + body.String() + "}"
	for _, d := range []int64{3, 5, 1 << 31} {
		for _, engine := range []Engine{EngineClosures, EngineBytecode} {
			ex := newExec(t, src, "g")
			ex.Engine = engine
			out := NewIntBuffer(4 * len(want))
			if err := ex.Bind(BufArg(out), IntArg(d)); err != nil {
				t.Fatal(err)
			}
			if err := ex.Launch(ND1(4, 2)); err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(); err != nil {
				t.Fatalf("%v, d=%d: %v", engine, d, err)
			}
			for item := 0; item < 4; item++ {
				if got := out.I32[item*len(want) : (item+1)*len(want)]; !reflect.DeepEqual(got, want) {
					t.Errorf("%v, d=%d, work-item %d: read %v, want %v", engine, d, item, got, want)
				}
			}
		}
	}
}
