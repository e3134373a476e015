package clc_test

import (
	"fmt"
	"strings"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/workloads"
)

// everyKindSrc uses every node kind Inspect knows.
const everyKindSrc = `__kernel void k(__global float* a, int n) {
	int i = get_global_id(0), j;
	if (i >= n) return;
	float x = 1.5f;
	for (j = 0; j < n; j++) {
		if (j == 2) continue; else x += a[j];
	}
	while (x > 0.0f) { x = -x; break; }
	do { j--; } while (j > 0 ? 1 : 0);
	barrier(CLK_GLOBAL_MEM_FENCE);
	a[i] = (float)j + x;
}`

func compileOne(t *testing.T, src string) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return prog.Kernels[0]
}

// label names a node by its kind, and a leaf by its text too.
func label(n clc.Node) string {
	kind := strings.TrimPrefix(fmt.Sprintf("%T", n), "*clc.")
	switch e := n.(type) {
	case *clc.Ident:
		return kind + " " + e.Name
	case *clc.IntLit:
		return kind + " " + e.Text
	case *clc.FloatLit:
		return kind + " " + e.Text
	case *clc.Binary:
		return kind + " " + e.Op.String()
	case *clc.Assign:
		return kind + " " + e.Op.String()
	case *clc.Call:
		return kind + " " + e.Name
	}
	return kind
}

func visits(n clc.Node, prune func(clc.Node) bool) []string {
	var got []string
	clc.Inspect(n, func(n clc.Node) bool {
		if n == nil {
			got = append(got, "nil")
			return false
		}
		got = append(got, label(n))
		return prune == nil || !prune(n)
	})
	return got
}

func TestInspectOrder(t *testing.T) {
	got := visits(compileOne(t, everyKindSrc), nil)
	want := []string{
		"Kernel", "Block",
		"DeclStmt", "Call get_global_id", "IntLit 0",
		"IfStmt", "Binary >=", "Ident i", "Ident n", "ReturnStmt",
		"DeclStmt", "FloatLit 1.5",
		"ForStmt",
		"ExprStmt", "Assign =", "Ident j", "IntLit 0",
		"Binary <", "Ident j", "Ident n",
		"IncDec", "Ident j",
		"Block", "IfStmt", "Binary ==", "Ident j", "IntLit 2", "ContinueStmt",
		"ExprStmt", "Assign +=", "Ident x", "Index", "Ident a", "Ident j",
		"WhileStmt", "Binary >", "Ident x", "FloatLit 0.0",
		"Block", "ExprStmt", "Assign =", "Ident x", "Unary", "Ident x", "BreakStmt",
		"DoWhileStmt", "Block", "ExprStmt", "IncDec", "Ident j",
		"Cond", "Binary >", "Ident j", "IntLit 0", "IntLit 1", "IntLit 0",
		"BarrierStmt",
		"ExprStmt", "Assign =", "Index", "Ident a", "Ident i",
		"Binary +", "Cast", "Ident j", "Ident x",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("visit order:\n%s\nwant:\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

func TestInspectPrunes(t *testing.T) {
	k := compileOne(t, everyKindSrc)
	got := visits(k, func(n clc.Node) bool {
		switch n.(type) {
		case *clc.ForStmt, *clc.WhileStmt, *clc.DoWhileStmt, *clc.Binary:
			return true
		}
		return false
	})
	want := []string{
		"Kernel", "Block",
		"DeclStmt", "Call get_global_id", "IntLit 0",
		"IfStmt", "Binary >=", "ReturnStmt",
		"DeclStmt", "FloatLit 1.5",
		"ForStmt", "WhileStmt", "DoWhileStmt", "BarrierStmt",
		"ExprStmt", "Assign =", "Index", "Ident a", "Ident i", "Binary +",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("pruned visit order:\n%s\nwant:\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
	if got := visits(k, func(clc.Node) bool { return true }); len(got) != 1 || got[0] != "Kernel" {
		t.Errorf("pruning at the root visits %v, want the root alone", got)
	}
}

// TestInspectNilChildren checks that Inspect passes f no nil child: a
// missing else, a for with no Init, Cond or Post, a declarator with no
// initialiser and a kernel with no body.
func TestInspectNilChildren(t *testing.T) {
	k := compileOne(t, `__kernel void k(__global int* a) {
	int i;
	if (a[0] > 0) a[0] = 1;
	for (;;) { break; }
}`)
	want := []string{
		"Kernel", "Block", "DeclStmt",
		"IfStmt", "Binary >", "Index", "Ident a", "IntLit 0", "IntLit 0",
		"ExprStmt", "Assign =", "Index", "Ident a", "IntLit 0", "IntLit 1",
		"ForStmt", "Block", "BreakStmt",
	}
	if got := visits(k, nil); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("visit order:\n%s\nwant:\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
	for _, n := range []clc.Node{
		&clc.Kernel{},
		&clc.IfStmt{Cond: &clc.IntLit{}, Then: &clc.Block{}},
		&clc.ForStmt{Body: &clc.Block{}},
		&clc.DeclStmt{Decls: []*clc.VarDecl{{Name: "v"}}},
	} {
		for _, v := range visits(n, nil) {
			if v == "nil" {
				t.Errorf("Inspect(%T) visits a nil child", n)
			}
		}
	}
}

// TestInspectVisitsEverySiteOnce walks the real kernels and the first 200
// lattice cases of each class: Inspect must reach every memory site the
// checker numbered, each exactly once. The printer counts the sites
// independently: one '[' per subscript, and one per array declarator.
func TestInspectVisitsEverySiteOnce(t *testing.T) {
	check := func(name string, k *clc.Kernel) {
		sites := strings.Count(clc.PrintKernel(k), "[")
		for _, sym := range k.Locals {
			if sym.ArrayLen > 0 {
				sites--
			}
		}
		var seen []int
		clc.Inspect(k, func(n clc.Node) bool {
			if ix, ok := n.(*clc.Index); ok {
				for len(seen) <= ix.Site {
					seen = append(seen, 0)
				}
				seen[ix.Site]++
			}
			return true
		})
		if len(seen) != sites {
			t.Errorf("%s: Inspect reaches sites 0..%d, the printer prints %d", name, len(seen)-1, sites)
		}
		for site, n := range seen {
			if n != 1 {
				t.Errorf("%s: site %d visited %d times", name, site, n)
			}
		}
	}
	for _, d := range workloads.RealDescs() {
		w, err := d.Build(256, 64)
		if err != nil {
			t.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		check(d.Name, k)
	}
	for _, class := range []conformance.Class{conformance.ClassTotal, conformance.ClassTrappy} {
		for i := 0; i < 200; i++ {
			c, err := conformance.GenerateClass(conformance.CaseSeed(1, i), class)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := clc.Compile(c.Source)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("lattice/%s case %d", class, i), prog.Kernel(c.Kernel))
		}
	}
}
