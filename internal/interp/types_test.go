package interp

import (
	"testing"

	"dopia/internal/clc"
)

// Tests for the less-traveled interpreter paths: 64-bit and double
// buffers, private arrays, do-while loops, compound assignments through
// memory, and increment/decrement of buffer elements.

func TestDoubleAndLongBuffers(t *testing.T) {
	src := `__kernel void dl(__global double* d, __global long* l, int n) {
        int i = get_global_id(0);
        if (i < n) {
            d[i] = d[i] * 2.0 + 0.5;
            l[i] = l[i] * 3 + 1;
        }
    }`
	ex := newExec(t, src, "dl")
	n := 16
	d := NewBuffer(clc.KindDouble, n)
	l := NewBuffer(clc.KindLong, n)
	for i := 0; i < n; i++ {
		d.F64[i] = float64(i)
		l.I64[i] = int64(i) << 40 // exercise the full 64-bit range
	}
	if err := ex.Bind(BufArg(d), BufArg(l), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d.F64[i] != float64(i)*2+0.5 {
			t.Fatalf("d[%d] = %v", i, d.F64[i])
		}
		if l.I64[i] != (int64(i)<<40)*3+1 {
			t.Fatalf("l[%d] = %d", i, l.I64[i])
		}
	}
	if d.ElemSize() != 8 || l.ElemSize() != 8 {
		t.Error("elem sizes wrong for 64-bit buffers")
	}
}

func TestPrivateArray(t *testing.T) {
	src := `__kernel void pa(__global float* out, int n) {
        int i = get_global_id(0);
        float window[4];
        for (int j = 0; j < 4; j++) {
            window[j] = (float)(i + j);
        }
        float s = 0.0f;
        for (int j = 0; j < 4; j++) {
            s += window[j];
        }
        if (i < n) { out[i] = s; }
    }`
	ex := newExec(t, src, "pa")
	n := 32
	out := NewFloatBuffer(n)
	if err := ex.Bind(BufArg(out), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float32(4*i + 6) // i + i+1 + i+2 + i+3
		if out.F32[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, out.F32[i], want)
		}
	}
}

func TestDoWhileAndBreakContinue(t *testing.T) {
	src := `__kernel void dw(__global int* out, int n) {
        int i = get_global_id(0);
        if (i >= n) return;
        int s = 0;
        int j = 0;
        do {
            j++;
            if (j == 3) continue;
            if (j > 6) break;
            s += j;
        } while (j < 100);
        out[i] = s;
    }`
	ex := newExec(t, src, "dw")
	out := NewIntBuffer(8)
	if err := ex.Bind(BufArg(out), IntArg(8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	// 1+2+4+5+6 = 18 (3 skipped, 7 breaks).
	for i := 0; i < 8; i++ {
		if out.I32[i] != 18 {
			t.Fatalf("out[%d] = %d, want 18", i, out.I32[i])
		}
	}
}

func TestCompoundAssignAndIncDecOnBuffer(t *testing.T) {
	src := `__kernel void ca(__global int* a, __global float* f, int n) {
        int i = get_global_id(0);
        if (i < n) {
            a[i] += 10;
            a[i] *= 2;
            a[i] -= 1;
            a[i] %= 100;
            f[i] /= 2.0f;
            a[i]++;
            --a[i];
            int old = a[i]++;
            a[i] += old;
        }
    }`
	ex := newExec(t, src, "ca")
	n := 8
	a := NewIntBuffer(n)
	f := NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		a.I32[i] = int32(i)
		f.F32[i] = float32(i)
	}
	if err := ex.Bind(BufArg(a), BufArg(f), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := (int32(i)+10)*2 - 1
		v %= 100
		// a[i]++ then --a[i] cancel; then old=v, a[i]=v+1, a[i]+=v -> 2v+1.
		want := 2*v + 1
		if a.I32[i] != want {
			t.Fatalf("a[%d] = %d, want %d", i, a.I32[i], want)
		}
		if f.F32[i] != float32(i)/2 {
			t.Fatalf("f[%d] = %v", i, f.F32[i])
		}
	}
}

func TestLocalScalarSharing(t *testing.T) {
	// A __local scalar written by lane 0 and read by all lanes after a
	// barrier.
	src := `__kernel void ls(__global int* out) {
        __local int token;
        if (get_local_id(0) == 0) { token = get_group_id(0) * 100; }
        barrier(CLK_LOCAL_MEM_FENCE);
        out[get_global_id(0)] = token + get_local_id(0);
    }`
	ex := newExec(t, src, "ls")
	out := NewIntBuffer(16)
	if err := ex.Bind(BufArg(out)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(16, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		want := int32(i/8*100 + i%8)
		if out.I32[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out.I32[i], want)
		}
	}
}

func TestTernaryAndUnsigned(t *testing.T) {
	src := `__kernel void tu(__global int* out, uint u) {
        int i = get_global_id(0);
        if (i == 0) {
            out[0] = u > 0x7FFFFFFF ? 1 : 0;         // unsigned compare
            out[1] = (int)(u / 2u);                  // unsigned divide
            out[2] = (int)(u % 10u);
            uint big = 0xFFFFFFF0u;
            out[3] = (int)(big >> 4);                // logical shift
        }
    }`
	ex := newExec(t, src, "tu")
	out := NewIntBuffer(4)
	if err := ex.Bind(BufArg(out), IntArg(0x80000000)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if out.I32[0] != 1 {
		t.Errorf("unsigned compare failed: %d", out.I32[0])
	}
	if out.I32[1] != 0x40000000 {
		t.Errorf("unsigned divide = %x", out.I32[1])
	}
	if out.I32[2] != int32(uint32(0x80000000)%10) {
		t.Errorf("unsigned mod = %d", out.I32[2])
	}
	if out.I32[3] != int32(uint32(0xFFFFFFF0)>>4) {
		t.Errorf("logical shift = %x", out.I32[3])
	}
}

// TestCloneKeepsKindAndBindability clones a buffer of every kind at
// lengths 0 and 3: the clone must equal the original, bind to the same
// parameter kinds, and share no storage with it.
func TestCloneKeepsKindAndBindability(t *testing.T) {
	kinds := []clc.Kind{clc.KindFloat, clc.KindDouble, clc.KindInt, clc.KindUInt,
		clc.KindBool, clc.KindLong, clc.KindULong}
	for _, kind := range kinds {
		for _, n := range []int{0, 3} {
			b := NewBuffer(kind, n)
			c := b.Clone()
			if !c.Equal(b) || c.Kind != b.Kind || c.Len() != n {
				t.Errorf("%v[%d]: clone differs from the original", kind, n)
			}
			for _, k := range kinds {
				if c.CompatibleWith(k) != b.CompatibleWith(k) {
					t.Errorf("%v[%d]: clone binds to %v: %t, original: %t",
						kind, n, k, c.CompatibleWith(k), b.CompatibleWith(k))
				}
			}
			if n > 0 {
				c.Raw()[0] ^= 0xff
				if c.Equal(b) {
					t.Errorf("%v[%d]: clone shares storage", kind, n)
				}
			}
		}
	}
}

func TestBufferHelpers(t *testing.T) {
	b := NewFloatBuffer(3)
	b.F32[1] = 5
	c := b.Clone()
	if !b.Equal(c) {
		t.Error("clone not equal")
	}
	c.F32[1] = 6
	if b.Equal(c) {
		t.Error("clone shares storage")
	}
	if b.Equal(NewIntBuffer(3)) {
		t.Error("kind mismatch must not be equal")
	}
	if b.Equal(NewFloatBuffer(4)) {
		t.Error("length mismatch must not be equal")
	}
	if b.Bytes() != 12 {
		t.Errorf("Bytes = %d", b.Bytes())
	}
	d := NewBuffer(clc.KindDouble, 2)
	l := NewBuffer(clc.KindLong, 2)
	d.F64[0] = 1
	l.I64[0] = 1
	if !d.Clone().Equal(d) || !l.Clone().Equal(l) {
		t.Error("64-bit clone/equal broken")
	}
}
