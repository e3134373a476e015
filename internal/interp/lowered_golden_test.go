package interp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// TestLoweredProgramGolden pins lowering instruction for instruction
// (interp.LoweredDigest): one SHA-256 per real kernel at the relaunch
// geometry (forRelaunchKernels), one per conformance lattice class over
// its first 200 cases at the quick lattice's base seed, and one per kind
// of the operator matrix (operatorMatrix, effectsMatrix). A change to what any of them
// lowers to, or to the order it counts, checks or traps in, shows up here
// as a reviewed diff; a refactor of the lowerer must leave the file
// byte-identical. The matrix reaches opcodes no real kernel or lattice
// case emits (matrixOnlyOps), and runs on both engines with bit-identical
// buffers, statistics and trap text.
func TestLoweredProgramGolden(t *testing.T) {
	const golden = "testdata/lowered.golden"
	var b strings.Builder
	b.WriteString("# kernel|class|kind sha256(lowered programs)\n")
	forRelaunchKernels(t, func(rk relaunchKernel) {
		fmt.Fprintf(&b, "%s %s\n", rk.name, interp.LoweredDigest(launched(t, rk.k, rk.inst.Args, rk.inst.ND)))
	})
	for _, class := range []conformance.Class{conformance.ClassTotal, conformance.ClassTrappy} {
		h := sha256.New()
		for i := 0; i < 200; i++ {
			c, err := conformance.GenerateClass(conformance.CaseSeed(1, i), class)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := clc.Compile(c.Source)
			if err != nil {
				t.Fatal(err)
			}
			args := make([]interp.Arg, len(c.Args))
			for j := range c.Args {
				args[j] = c.Args[j].Arg()
			}
			fmt.Fprintln(h, interp.LoweredDigest(launched(t, prog.Kernel(c.Kernel), args, c.ND)))
		}
		fmt.Fprintf(&b, "lattice/%s %s\n", class, hex.EncodeToString(h.Sum(nil)))
	}

	names := opcodeNames(t)
	emitted := map[string]bool{}
	for _, kind := range matrixKinds {
		h := sha256.New()
		for _, src := range kind.srcs(kind) {
			prog, err := clc.Compile(src)
			if err != nil {
				t.Fatalf("%s: %v\n%s", kind.name, err, src)
			}
			k := prog.Kernels[0]
			for _, zero := range []bool{false, true} {
				args := matrixArgs(kind.kind, zero)
				ref := runMatrix(t, k, interp.EngineClosures, args)
				args = matrixArgs(kind.kind, zero)
				got := runMatrix(t, k, interp.EngineBytecode, args)
				conformance.AssertIdentical(t, ref, got)
			}
			ex := launched(t, k, matrixArgs(kind.kind, false), matrixND)
			fmt.Fprintln(h, interp.LoweredDigest(ex))
			for op, n := range interp.OpHistogram(ex) {
				if n > 0 {
					emitted[names[op]] = true
				}
			}
		}
		fmt.Fprintf(&b, "matrix/%s %s\n", kind.name, hex.EncodeToString(h.Sum(nil)))
	}
	for _, op := range matrixOnlyOps {
		if !emitted[op] {
			t.Errorf("the operator matrix does not emit %s", op)
		}
	}
	checkGolden(t, golden, b.String())
}

// BenchmarkLayoutLower derives the layout of, and lowers, each of the 14
// real kernels (built at n = 256, work-group 64) once per iteration.
func BenchmarkLayoutLower(b *testing.B) {
	var ks []*clc.Kernel
	for _, d := range workloads.RealDescs() {
		w, err := d.Build(256, 64)
		if err != nil {
			b.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			if err := interp.LayoutAndLower(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// matrixOnlyOps are the opcodes that the census (census.golden) finds no
// real kernel and no generated lattice case emitting, and that the
// operator matrix does.
var matrixOnlyOps = []string{
	"DivU", "RemU", "ShrU", "StepI", "StepF", "IncDecF", "CmpI", "NotI", "NotF",
	"LdGF64", "LdGI64", "StGF64", "StGI64", "LdLSI", "LdLSF", "StLSI", "StLSF",
}

// matrixKind is one kind of the operator matrix: an element kind, the
// arithmetic operators defined over it and the kernels built from them.
type matrixKind struct {
	name string
	kind clc.Kind
	ops  []string
	srcs func(matrixKind) []string
}

var (
	intOps      = []string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"}
	floatOps    = []string{"+", "-", "*", "/"}
	matrixKinds = []matrixKind{
		{"int", clc.KindInt, intOps, operatorMatrix},
		{"uint", clc.KindUInt, intOps, operatorMatrix},
		{"long", clc.KindLong, intOps, operatorMatrix},
		{"ulong", clc.KindULong, intOps, operatorMatrix},
		{"float", clc.KindFloat, floatOps, operatorMatrix},
		{"double", clc.KindDouble, floatOps, operatorMatrix},
		{"int-effects", clc.KindInt, intOps, effectsMatrix},
	}
	matrixND = interp.ND1(32, 8)
)

// operatorMatrix returns the matrix's kernels over one kind: for every
// operator, one kernel per form (a op b; v op= b on a private variable,
// on a __local scalar and on a global element), each over register
// operands and over loads (which can trap, so their counts are paid
// first) with the load form first, so that a zero divisor traps there;
// then one kernel with every comparison as a value and as a branch
// (taken when true and when false), ++ and -- on each target, and unary
// - and !. Every kernel takes g and h (32 elements) and out (4 per
// work-item) of the kind.
func operatorMatrix(kind matrixKind) []string {
	head := fmt.Sprintf("__kernel void m(__global %[1]s* g, __global %[1]s* h, __global %[1]s* out) {\n"+
		"\tint i = get_global_id(0);\n\t__local %[1]s s;\n\t%[1]s v = g[i];\n\t%[1]s w = h[i];\n", kind.name)
	tail := "\tout[4 * i] = v;\n\tout[4 * i + 1] = w;\n\tout[4 * i + 2] = s;\n}\n"
	var srcs []string
	for _, op := range kind.ops {
		for _, form := range []string{
			"\tv = g[i] %[1]s h[i];\n\tw = v %[1]s w;\n\ts = w;\n",
			"\tv %[1]s= h[i];\n\tv %[1]s= w;\n\ts = v;\n",
			"\ts = g[i];\n\ts %[1]s= h[i];\n\ts %[1]s= w;\n",
			"\tg[i] %[1]s= h[i];\n\tg[i] %[1]s= w;\n\ts = g[i];\n",
		} {
			srcs = append(srcs, head+fmt.Sprintf(form, op)+tail)
		}
	}
	var body strings.Builder
	body.WriteString("\tint k = 0;\n\ts = w;\n")
	for j, op := range []string{"==", "!=", "<", ">", "<=", ">="} {
		fmt.Fprintf(&body, "\tk += (v %[1]s w) + (g[i] %[1]s h[i]);\n", op)
		fmt.Fprintf(&body, "\tif (v %[1]s w) k += %[2]d;\n\tif (!(g[i] %[1]s h[i])) k -= %[2]d;\n", op, j+1)
	}
	body.WriteString("\tv++;\n\t--v;\n\tw = v--;\n\t++w;\n\ts++;\n\t--s;\n\tw += s--;\n\tg[i]++;\n\t--g[i];\n\tv += g[i]--;\n")
	body.WriteString("\tw = -w + -g[i];\n\tk += !v + !h[i];\n\tout[4 * i + 3] = k;\n")
	return append(srcs, head+body.String()+tail)
}

// effectsMatrix returns the matrix's kernels over one kind whose operands
// have side effects: for every operator, one kernel per form (a compound
// assignment by a variable as an operand, so that an integer / or % by
// the zero divisor traps inside an expression; a plain assignment nested
// between two reads of its target; ++ and -- as operands, on a private
// variable and on a global element; one compound assignment nested in
// another). The lowerer decides from them where an operand's statistics
// are paid before it runs and which register operands are snapshotted
// first.
func effectsMatrix(kind matrixKind) []string {
	head := fmt.Sprintf("__kernel void m(__global %[1]s* g, __global %[1]s* h, __global %[1]s* out) {\n"+
		"\tint i = get_global_id(0);\n\t__local %[1]s s;\n\t%[1]s v = g[i];\n\t%[1]s w = h[i];\n\ts = w;\n", kind.kind)
	tail := "\tout[4 * i] = v;\n\tout[4 * i + 1] = w;\n\tout[4 * i + 2] = s;\n}\n"
	var srcs []string
	for _, op := range kind.ops {
		for _, form := range []string{
			"\ts = 3 + (v %[1]s= w);\n\tw = (s %[1]s= w) - 1;\n",
			"\tw = v + (v = h[i]) %[1]s v;\n\ts = (s = g[i]) %[1]s s;\n",
			"\tw = v++ %[1]s --w;\n\ts = g[i]-- %[1]s ++v;\n\tout[4 * i + 3] = g[i]++ + w--;\n",
			"\tv %[1]s= (w += g[i]++);\n\tg[i] %[1]s= (v = w);\n",
		} {
			srcs = append(srcs, head+fmt.Sprintf(form, op)+tail)
		}
	}
	return srcs
}

// matrixArgs builds the matrix's arguments over kind: g and h with small
// values of both signs and out zeroed. No element of h is 0, unless zero,
// when h[5] is: a division by it traps at work-item 5.
func matrixArgs(kind clc.Kind, zero bool) []interp.Arg {
	g, h := interp.NewBuffer(kind, 32), interp.NewBuffer(kind, 32)
	for j := 0; j < 32; j++ {
		gv, hv := float64(j%11-4)*1.75, float64(j%7+1)
		if j%3 == 0 {
			hv = -hv
		}
		if zero && j == 5 {
			hv = 0
		}
		for _, e := range []struct {
			b *interp.Buffer
			v float64
		}{{g, gv}, {h, hv}} {
			switch {
			case len(e.b.F32) > 0:
				e.b.F32[j] = float32(e.v)
			case len(e.b.F64) > 0:
				e.b.F64[j] = e.v
			case len(e.b.I32) > 0:
				e.b.I32[j] = int32(e.v * 3)
			default:
				e.b.I64[j] = int64(e.v*3) << 29
			}
		}
	}
	return []interp.Arg{interp.BufArg(g), interp.BufArg(h), interp.BufArg(interp.NewBuffer(kind, 128))}
}

// runMatrix runs a matrix kernel over args on one engine, sequentially,
// and returns what it observably did.
func runMatrix(t *testing.T, k *clc.Kernel, engine interp.Engine, args []interp.Arg) *conformance.Observation {
	t.Helper()
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatal(err)
	}
	ex.Engine, ex.Parallelism = engine, interp.Sequential
	if err := ex.Bind(args...); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(matrixND); err != nil {
		t.Fatal(err)
	}
	obs := &conformance.Observation{Leg: fmt.Sprint(engine), Err: ex.Run(), Profile: ex.Stats()}
	for i, a := range args {
		obs.Buffers = append(obs.Buffers, conformance.BufferObs{
			Name: fmt.Sprintf("arg%d", i), Bytes: conformance.BufferBytes(a.Buf),
		})
	}
	return obs
}
