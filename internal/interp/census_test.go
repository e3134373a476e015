package interp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"dopia/internal/interp"
)

// TestInterpCensus records what each interpreter path serves on the
// fourteen real kernels at the relaunch geometry (forRelaunchKernels):
// the opcode histogram of each kernel's lowered program, and for its
// unprofiled run (the managed launch's functional run) and its profiled
// run at 1 and 3 shards, how many fused loops the closed form served
// (affine), how many ran their unfused body (unfused) and how many
// work-items parked at a column walk (parked). The footer names the
// opcodes no real kernel emits. A specialised path earns its place with
// a hit here; a change that moves a kernel onto or off a path shows up as
// a reviewed diff.
func TestInterpCensus(t *testing.T) {
	const golden = "testdata/census.golden"
	names := opcodeNames(t)
	emitted := make([]bool, len(names))
	var b strings.Builder
	b.WriteString("# kernel ops <opcode>=<instructions>...\n")
	b.WriteString("# kernel unprofiled|profiled shards=<n> affine=<loops> unfused=<loops> parked=<work-items>\n")
	forRelaunchKernels(t, func(rk relaunchKernel) {
		inst := rk.inst
		fmt.Fprintf(&b, "%s ops", rk.name)
		for op, n := range interp.OpHistogram(launched(t, rk.k, inst.Args, inst.ND)) {
			if n > 0 {
				emitted[op] = true
				fmt.Fprintf(&b, " %s=%d", names[op], n)
			}
		}
		b.WriteByte('\n')
		for _, profiled := range []bool{false, true} {
			leg := "unprofiled"
			if profiled {
				leg = "profiled"
			}
			for _, shards := range []int{1, 3} {
				ex := launched(t, rk.k, inst.Args, inst.ND)
				ex.Parallelism = shards
				if err := runAll(ex, inst.ND, profiled); err != nil {
					t.Fatalf("%s %s shards=%d: %v", rk.name, leg, shards, err)
				}
				fmt.Fprintf(&b, "%s %s shards=%d affine=%d unfused=%d parked=%d\n", rk.name, leg, shards,
					interp.AffineLoops(ex), interp.UnfusedLoops(ex), interp.ParkedItems(ex))
			}
		}
	})
	line := "# emitted by no real kernel:"
	for op, name := range names {
		if emitted[op] {
			continue
		}
		if len(line)+1+len(name) > 72 {
			b.WriteString(line + "\n")
			line = "#"
		}
		line += " " + name
	}
	b.WriteString(line + "\n")
	checkGolden(t, golden, b.String())
}

// opcodeNames lists the interpreter's opcodes in value order, without
// their op prefix, as the const block of type opcode in bytecode.go
// declares them.
func opcodeNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "bytecode.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "opcode" {
			continue
		}
		var names []string
		for _, spec := range gd.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				names = append(names, strings.TrimPrefix(id.Name, "op"))
			}
		}
		return names
	}
	t.Fatal("bytecode.go declares no opcode constants")
	return nil
}
