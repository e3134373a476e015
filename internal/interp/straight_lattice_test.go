package interp_test

import (
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/interp"
)

// TestStraightLineLattice holds that the conformance lattice reaches the
// straight-line lowering: over the quick lattice's first cases (its
// default base seed), every straight-line opcode is dispatched by at
// least one case's profiled bytecode run. A load shows it ran by a
// nonzero count on its access site; the offset guard and the statistics
// pre-payment record nothing, so for them it is enough to be lowered into
// a case that ran.
func TestStraightLineLattice(t *testing.T) {
	const cases = 120
	seen := map[string]int{}
	for i := 0; i < cases; i++ {
		c, err := conformance.Generate(conformance.CaseSeed(1, i))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := clc.Compile(c.Source)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := interp.NewExec(prog.Kernel(c.Kernel))
		if err != nil {
			t.Fatal(err)
		}
		ex.Engine, ex.Parallelism = interp.EngineBytecode, interp.Sequential
		args := make([]interp.Arg, len(c.Args))
		for j := range c.Args {
			args[j] = c.Args[j].Arg()
		}
		if err := ex.Bind(args...); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(c.ND); err != nil {
			t.Fatal(err)
		}
		// A trappy case may stop early; what it dispatched still counts.
		_ = ex.Run()
		ran := map[int]bool{}
		for _, sp := range ex.Stats().Sites {
			ran[sp.Site] = sp.Count > 0
		}
		for _, in := range interp.StraightInstrs(ex) {
			if in.Site < 0 || ran[in.Site] {
				seen[in.Op]++
			}
		}
	}
	for _, op := range interp.StraightOpNames() {
		if seen[op] == 0 {
			t.Errorf("no lattice case dispatched %s (dispatched: %v)", op, seen)
		}
	}
	t.Logf("dispatched straight-line instructions by opcode: %v", seen)
}
