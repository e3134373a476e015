package clc

import (
	"strings"
	"testing"
)

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
}
`

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile failed: %v", err)
	}
	return prog
}

func TestParseGesummv(t *testing.T) {
	prog := mustCompile(t, gesummvSrc)
	if len(prog.Kernels) != 1 {
		t.Fatalf("got %d kernels, want 1", len(prog.Kernels))
	}
	k := prog.Kernels[0]
	if k.Name != "gesummv" {
		t.Errorf("kernel name = %q", k.Name)
	}
	if len(k.Params) != 7 {
		t.Fatalf("got %d params, want 7", len(k.Params))
	}
	if k.Params[0].Type != GlobalPtr(KindFloat) {
		t.Errorf("param A type = %v", k.Params[0].Type)
	}
	if k.Params[4].Type != TypeFloat {
		t.Errorf("param alpha type = %v", k.Params[4].Type)
	}
	if k.Params[6].Type != TypeInt {
		t.Errorf("param N type = %v", k.Params[6].Type)
	}
}

func TestParseMultipleKernels(t *testing.T) {
	src := `
__kernel void k1(__global float* a) { a[get_global_id(0)] = 1.0f; }
__kernel void k2(__global float* a) { a[get_global_id(0)] = 2.0f; }
`
	prog := mustCompile(t, src)
	if len(prog.Kernels) != 2 {
		t.Fatalf("got %d kernels, want 2", len(prog.Kernels))
	}
	if prog.Kernel("k2") == nil || prog.Kernel("k3") != nil {
		t.Error("Kernel() lookup broken")
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `__kernel void k(__global int* a, int x, int y, int z) {
        a[0] = x + y * z;
        a[1] = (x + y) * z;
        a[2] = x < y && y < z || z == 0;
        a[3] = x & 3 | y ^ 2;
        a[4] = x << 2 + 1;
    }`
	prog := mustCompile(t, src)
	body := prog.Kernels[0].Body
	// a[0] = x + y*z : RHS must be Binary(Add, x, Binary(Mul,y,z))
	as := body.Stmts[0].(*ExprStmt).X.(*Assign)
	add, ok := as.RHS.(*Binary)
	if !ok || add.Op != BinAdd {
		t.Fatalf("a[0] RHS not an add: %v", ExprString(as.RHS))
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != BinMul {
		t.Errorf("mul does not bind tighter than add: %v", ExprString(as.RHS))
	}
	// a[2]: || at top
	as2 := body.Stmts[2].(*ExprStmt).X.(*Assign)
	if or, ok := as2.RHS.(*Binary); !ok || or.Op != BinLOr {
		t.Errorf("|| not at top: %v", ExprString(as2.RHS))
	}
	// a[4]: shift binds looser than +: x << (2+1)
	as4 := body.Stmts[4].(*ExprStmt).X.(*Assign)
	if shl, ok := as4.RHS.(*Binary); !ok || shl.Op != BinShl {
		t.Errorf("<< not at top: %v", ExprString(as4.RHS))
	} else if add2, ok := shl.R.(*Binary); !ok || add2.Op != BinAdd {
		t.Errorf("+ does not bind tighter than <<: %v", ExprString(as4.RHS))
	}
}

func TestParseCastVsParen(t *testing.T) {
	src := `__kernel void k(__global float* a, int n) {
        a[0] = (float)n;
        a[1] = (n) + 1;
        int z = (int)a[0];
        a[2] = (float)(n + 1);
    }`
	prog := mustCompile(t, src)
	body := prog.Kernels[0].Body
	if _, ok := body.Stmts[0].(*ExprStmt).X.(*Assign).RHS.(*Cast); !ok {
		t.Error("(float)n not parsed as cast")
	}
	rhs1 := body.Stmts[1].(*ExprStmt).X.(*Assign).RHS
	if _, ok := rhs1.(*Binary); !ok {
		t.Errorf("(n) + 1 not parsed as binary: %T", rhs1)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `__kernel void k(__global int* a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            if (i % 2 == 0) continue;
            if (i > 100) break;
            s += i;
        }
        int j = 0;
        while (j < n) { j++; }
        do { j--; } while (j > 0);
        a[0] = s + j;
    }`
	prog := mustCompile(t, src)
	k := prog.Kernels[0]
	var fors, whiles, dos int
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, inner := range st.Stmts {
				walk(inner)
			}
		case *ForStmt:
			fors++
			walk(st.Body)
		case *WhileStmt:
			whiles++
			walk(st.Body)
		case *DoWhileStmt:
			dos++
			walk(st.Body)
		case *IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		}
	}
	walk(k.Body)
	if fors != 1 || whiles != 1 || dos != 1 {
		t.Errorf("loop counts: for=%d while=%d do=%d", fors, whiles, dos)
	}
}

func TestParseLocalArrayAndBarrier(t *testing.T) {
	src := `__kernel void k(__global int* a) {
        __local int wl[1];
        if (get_local_id(0) == 0) wl[0] = 0;
        barrier(CLK_LOCAL_MEM_FENCE);
        int w = atomic_inc(wl);
        a[get_global_id(0)] = w;
    }`
	prog := mustCompile(t, src)
	k := prog.Kernels[0]
	ds, ok := k.Body.Stmts[0].(*DeclStmt)
	if !ok || ds.Decls[0].ArrayLen != 1 || !ds.Decls[0].IsLocal {
		t.Fatalf("__local array decl not parsed: %+v", k.Body.Stmts[0])
	}
	if _, ok := k.Body.Stmts[2].(*BarrierStmt); !ok {
		t.Errorf("barrier not parsed as BarrierStmt: %T", k.Body.Stmts[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                             // no kernel
		"__kernel int k() {}",          // non-void kernel
		"__kernel void k( { }",         // bad params
		"__kernel void k() { x = 1; }", // undeclared
		"__kernel void k() { int x = 1; int x = 2; }", // redeclaration
		"__kernel void k(__global float* a) { a[0] = b[0]; }",
		"__kernel void k() { return 3; }",                                               // value return
		"__kernel void k() { break; }",                                                  // break outside loop
		"__kernel void k(int n) { n[0] = 1; }",                                          // subscript non-pointer
		"__kernel void k(float f) { int x = f % 2; }",                                   // float %
		"__kernel void k() { for (int i=0;i<4;i++) { barrier(CLK_LOCAL_MEM_FENCE); } }", // nested barrier
		"__kernel void k(__global float* a) { atomic_inc(a); }",                         // atomic on float*
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestCheckAnnotations(t *testing.T) {
	prog := mustCompile(t, gesummvSrc)
	k := prog.Kernels[0]
	if k.NumSlots != len(k.Params)+len(k.Locals) {
		t.Errorf("NumSlots=%d, params=%d locals=%d", k.NumSlots, len(k.Params), len(k.Locals))
	}
	// Every param has a symbol with a dense slot.
	for i, prm := range k.Params {
		if prm.Sym == nil || prm.Sym.Slot != i {
			t.Errorf("param %d symbol/slot wrong: %+v", i, prm.Sym)
		}
	}
	// Memory sites must be uniquely numbered.
	seen := map[int]bool{}
	var walkExpr func(x Expr)
	walkExpr = func(x Expr) {
		switch e := x.(type) {
		case *Index:
			if seen[e.Site] {
				t.Errorf("duplicate site id %d", e.Site)
			}
			seen[e.Site] = true
			walkExpr(e.Base)
			walkExpr(e.Idx)
		case *Binary:
			walkExpr(e.L)
			walkExpr(e.R)
		case *Assign:
			walkExpr(e.LHS)
			walkExpr(e.RHS)
		case *Unary:
			walkExpr(e.X)
		case *Call:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	var walkStmt func(s Stmt)
	walkStmt = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		case *DeclStmt:
			for _, d := range st.Decls {
				if d.Init != nil {
					walkExpr(d.Init)
				}
			}
		case *ExprStmt:
			walkExpr(st.X)
		case *IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *ForStmt:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkExpr(st.Post)
			}
			walkStmt(st.Body)
		}
	}
	walkStmt(k.Body)
	if len(seen) != 5 {
		t.Errorf("got %d memory sites, want 5 (A[..], x[j], B[..], x[j], y[i])", len(seen))
	}
}

func TestPrinterRoundTrip(t *testing.T) {
	sources := []string{
		gesummvSrc,
		`__kernel void k(__global int* a, __global const float* b, int n) {
            int i = get_global_id(0);
            int j = get_global_id(1);
            if (i < n && j < n) {
                a[i * n + j] = (int)(b[j * n + i] * 2.0f) % 7;
            }
        }`,
		`__kernel void k(__global float* a) {
            __local int wl[2];
            if (get_local_id(0) == 0) { wl[0] = 0; wl[1] = 0; }
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int w = atomic_inc(wl); w < get_local_size(0); w = atomic_inc(wl)) {
                a[w] = w > 10 ? 1.0f : -1.0f;
            }
        }`,
	}
	for _, src := range sources {
		p1 := mustCompile(t, src)
		out1 := PrintProgram(p1)
		p2, err := Compile(out1)
		if err != nil {
			t.Fatalf("printed source does not recompile: %v\n%s", err, out1)
		}
		out2 := PrintProgram(p2)
		if out1 != out2 {
			t.Errorf("printer not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
	}
}

func TestPrinterPreservesPrecedence(t *testing.T) {
	src := `__kernel void k(__global int* a, int x, int y, int z) {
        a[0] = (x + y) * z;
        a[1] = x - (y - z);
        a[2] = -(x + y);
        a[3] = x / (y * z);
    }`
	p1 := mustCompile(t, src)
	out := PrintProgram(p1)
	for _, want := range []string{"(x + y) * z", "x - (y - z)", "-(x + y)", "x / (y * z)"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output lost grouping %q:\n%s", want, out)
		}
	}
}

// TestPrinterNestedSigns pins the regression where -(-x) printed as --x,
// which re-lexes as a pre-decrement: a phantom *store* through whatever
// lvalue followed. The printed form must re-parse to the same nested
// unary expression, never to an IncDec.
func TestPrinterNestedSigns(t *testing.T) {
	src := `__kernel void k(__global float* a, __global int* b, int x) {
        a[0] = (-(-a[1]));
        b[0] = -(-x);
        b[1] = ~(-x);
        b[2] = -(~x);
    }`
	p1 := mustCompile(t, src)
	out := PrintProgram(p1)
	if strings.Contains(out, "--") || strings.Contains(out, "++") {
		t.Fatalf("nested signs merged into an inc/dec token:\n%s", out)
	}
	p2, err := Compile(out)
	if err != nil {
		t.Fatalf("printed source does not recompile: %v\n%s", err, out)
	}
	var incdec int
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case *IncDec:
			incdec++
		case *Unary:
			walkExpr(x.X)
		case *Binary:
			walkExpr(x.L)
			walkExpr(x.R)
		case *Assign:
			walkExpr(x.LHS)
			walkExpr(x.RHS)
		case *Index:
			walkExpr(x.Base)
			walkExpr(x.Idx)
		}
	}
	var walkStmt func(Stmt)
	walkStmt = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		case *ExprStmt:
			walkExpr(st.X)
		}
	}
	walkStmt(p2.Kernels[0].Body)
	if incdec != 0 {
		t.Errorf("re-parsed printed source contains %d inc/dec nodes, want 0:\n%s", incdec, out)
	}
}

// TestPrinterFloatLiteralWithoutText pins that a float literal built
// without source text (as generated code builds them) prints as a float:
// a whole value must gain its ".0", or it re-parses as an int.
func TestPrinterFloatLiteralWithoutText(t *testing.T) {
	for _, v := range []float64{2, 0.5, 1e20, 1e-7} {
		k := &Kernel{
			Name:   "k",
			Params: []*Param{{Name: "out", Type: Type{Kind: KindFloat, Ptr: true, Space: SpaceGlobal}}},
			Body: &Block{Stmts: []Stmt{&ExprStmt{X: &Assign{
				LHS: &Index{Base: &Ident{Name: "out"}, Idx: &Call{Name: "get_global_id", Args: []Expr{&IntLit{Value: 0}}}},
				RHS: &FloatLit{Value: v},
			}}}},
		}
		src := PrintKernel(k)
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("%v: printed kernel does not compile: %v\n%s", v, err, src)
		}
		rhs := prog.Kernels[0].Body.Stmts[0].(*ExprStmt).X.(*Assign).RHS
		if lit, ok := rhs.(*FloatLit); !ok || lit.Value != v {
			t.Errorf("%v printed as %q, which re-parses as %T", v, src, rhs)
		}
	}
}
