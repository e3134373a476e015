package interp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// walkKernel is a column walk acc += A[j*N + c] * X[j] over an N-wide
// matrix: prefix declares acc, the column c and the trip bound m, suffix
// uses acc.
func walkKernel(prefix, suffix string) string {
	return `
__kernel void walk(__global float* A, __global float* X, __global float* C, __global float* Y, int N, int M)
{
    int i = get_global_id(0);
    ` + prefix + `
    for (int j = 0; j < m; j++) {
        acc += A[j * N + c] * X[j];
    }
    ` + suffix + `
}`
}

// walkCase is one parking shape: the kernel, the launch (rows > 0 makes
// it 2-D, one group of rows work-items deep), the lengths of A, C and Y
// (0: the default), and whether Y is bound to C's or A's buffer.
type walkCase struct {
	name          string
	src           string
	global, wg    int
	rows          int
	aLen, cLen    int
	yLen          int
	yIsC, yIsA    bool
	trap, parks   bool
	wantClosedMin int64 // fewest closed-form walks a parking run serves
}

const walkN, walkM = 112, 20 // A is walkN wide, walkM rows deep

var walkCases = []walkCase{
	{name: "column walk", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "Y[i] = acc;"),
		global: 48, wg: 16, parks: true, wantClosedMin: 48},
	{name: "MVT2 shape", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "C[i] = acc;"),
		global: 48, wg: 16, yIsC: true, parks: true, wantClosedMin: 48},
	{name: "MVT2 shape, a later item's prefix load traps",
		src:    walkKernel("float acc = C[i]; int c = i; int m = M;", "C[i] = acc;"),
		global: 48, wg: 16, cLen: 37, yIsC: true, trap: true, parks: true},
	{name: "suffix store traps", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "Y[i] = acc;"),
		global: 48, wg: 16, yLen: 27, trap: true, parks: true},
	{name: "zero-trip loops", src: walkKernel("float acc = C[i]; int c = i; int m = (i % 16 < 3) ? 0 : M;", "Y[i] = acc;"),
		global: 48, wg: 16, parks: true, wantClosedMin: 39},
	{name: "columns not adjacent", src: walkKernel("float acc = C[i]; int c = 2 * i; int m = M;", "Y[i] = acc;"),
		global: 48, wg: 16, parks: true, wantClosedMin: 48},
	{name: "group not a multiple of the block", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "Y[i] = acc;"),
		global: 48, wg: 12, parks: true, wantClosedMin: 48},
	{name: "walk leaves A", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "Y[i] = acc;"),
		global: 48, wg: 16, aLen: walkN*(walkM-1) + 29, trap: true, parks: true},
	{name: "Y bound to A", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "Y[i] = acc;"),
		global: 48, wg: 16, yIsA: true},
	{name: "store at the group id", src: walkKernel("float acc = C[i]; int c = i; int m = M;", "Y[get_group_id(0)] = acc;"),
		global: 48, wg: 16},
	{name: "rows of a 2-D group share their elements",
		src:    walkKernel("float acc = C[i]; int c = i; int m = M;", "C[i] = acc;"),
		global: 48, wg: 16, rows: 2, yIsC: true},
}

// walkRun is one execution of a walk case.
type walkRun struct {
	ex   *Exec
	bufs [][]uint32 // the bits of A, X, C and Y after the run
	err  error
}

// runWalk runs c once: unprofiled unless profiled.
func runWalk(t *testing.T, c walkCase, engine Engine, shards int, profiled bool) *walkRun {
	t.Helper()
	ex := newExec(t, c.src, "walk")
	ex.Engine, ex.Parallelism = engine, shards
	run := &walkRun{ex: ex}
	or := func(n, def int) int {
		if n == 0 {
			return def
		}
		return n
	}
	A := &Buffer{F32: edgeFinite(or(c.aLen, walkN*walkM), 1)}
	X := &Buffer{F32: edgeFinite(walkM, 2)}
	C := &Buffer{F32: edgeFinite(or(c.cLen, c.global), 3)}
	Y := NewFloatBuffer(or(c.yLen, c.global))
	switch {
	case c.yIsC:
		Y = C
	case c.yIsA:
		Y = A
	}
	if err := ex.Bind(BufArg(A), BufArg(X), BufArg(C), BufArg(Y), IntArg(walkN), IntArg(walkM)); err != nil {
		t.Fatal(err)
	}
	nd := ND1(c.global, c.wg)
	if c.rows > 0 {
		nd = ND2(c.global, c.rows, c.wg, c.rows)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatal(err)
	}
	if profiled {
		run.err = ex.Run()
	} else {
		run.err = ex.RunUnprofiled([]Segment{{Count: nd.TotalGroups()}})
	}
	for _, b := range []*Buffer{A, X, C, Y} {
		var bits []uint32
		for _, v := range b.F32 {
			bits = append(bits, math.Float32bits(v))
		}
		run.bufs = append(run.bufs, bits)
	}
	return run
}

// diffWalk reports how got differs from the closure engine's run want:
// error text and position, buffers (unless buffers is false: a trapping
// run on several shards stops its later shards on timing) and the
// profile, aggregate counters at the trap included.
func diffWalk(got, want *walkRun, buffers bool) string {
	switch {
	case fmt.Sprint(got.err) != fmt.Sprint(want.err):
		return fmt.Sprintf("error %v, the closure engine reports %v", got.err, want.err)
	case buffers && !reflect.DeepEqual(got.bufs, want.bufs):
		return "buffers diverge"
	}
	gotProf, wantProf := got.ex.Stats(), want.ex.Stats()
	gotProf.Engine, wantProf.Engine = 0, 0
	if !reflect.DeepEqual(gotProf, wantProf) {
		return fmt.Sprintf("profile diverges:\n got %+v\nwant %+v", gotProf, wantProf)
	}
	return ""
}

// TestParkedColumnWalks runs every parking shape unprofiled at 1, 2 and 3
// shards against the closure engine — buffers, aggregate counters, trap
// text and position, and the counters at a trap — and checks that the
// eligible ones parked and blocked their walks and the refused ones did
// not park. A profiled run of each must not park, and match the closure
// engine too.
func TestParkedColumnWalks(t *testing.T) {
	for _, c := range walkCases {
		for _, shards := range []int{1, 2, 3} {
			want := runWalk(t, c, EngineClosures, shards, false)
			if (want.err != nil) != c.trap {
				t.Fatalf("%s: closure engine error %v, want trap=%v", c.name, want.err, c.trap)
			}
			got := runWalk(t, c, EngineBytecode, shards, false)
			if Parks(got.ex) != c.parks {
				t.Errorf("%s: parks=%v, want %v (pinned: %q)", c.name, Parks(got.ex), c.parks, got.ex.itemPin)
			}
			if d := diffWalk(got, want, !c.trap || shards == 1); d != "" {
				t.Errorf("%s, %d shards: %s", c.name, shards, d)
			}
			if parked := ParkedItems(got.ex); (parked > 0) != c.parks {
				t.Errorf("%s, %d shards: %d work-items parked, want parking=%v", c.name, shards, parked, c.parks)
			}
			if blocked := AffineLoops(got.ex); blocked < c.wantClosedMin {
				t.Errorf("%s, %d shards: the closed form served %d walks, want at least %d",
					c.name, shards, blocked, c.wantClosedMin)
			}
		}
		want := runWalk(t, c, EngineClosures, Sequential, true)
		got := runWalk(t, c, EngineBytecode, Sequential, true)
		if d := diffWalk(got, want, true); d != "" {
			t.Errorf("%s, profiled: %s", c.name, d)
		}
		if parked := ParkedItems(got.ex); parked != 0 {
			t.Errorf("%s, profiled: %d work-items parked", c.name, parked)
		}
	}
}
