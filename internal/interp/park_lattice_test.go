package interp_test

import (
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/interp"
)

// TestParkingLattice holds that the conformance lattice reaches the
// blocked column walks: over the quick lattice's cases (its default base
// seed, and its case count outside the race detector), the unprofiled
// bytecode runs — the lattice's bytecode-unprofiled legs — park
// work-items in some case of each class.
func TestParkingLattice(t *testing.T) {
	const cases = 220
	parked := map[conformance.Class]int64{}
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
		// A trappy case may stop early; what parked before still counts.
		_ = ex.RunUnprofiled([]interp.Segment{{Count: c.ND.TotalGroups()}})
		parked[c.Class] += interp.ParkedItems(ex)
	}
	t.Logf("parked: %v", parked)
	for _, class := range []conformance.Class{conformance.ClassTotal, conformance.ClassTrappy} {
		if parked[class] == 0 {
			t.Errorf("no %v case of the lattice parked a work-item", class)
		}
	}
}
