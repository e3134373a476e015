package interp_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dopia/internal/interp"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// TestStraightLineGolden records the size of each of the fourteen real
// kernels' lowered programs, and of its malleable GPU form's, at the
// geometry the relaunch benchmark runs them: all instructions, and the
// straight-line superinstructions among them. A lowering change that
// grows a body or drops a fused op shows up here as a reviewed diff. It
// also holds the stencils to their budgets, and their malleable forms to
// as many fused loads as the kernel itself.
func TestStraightLineGolden(t *testing.T) {
	const golden = "testdata/straight_line.golden"
	budget := map[string]int{"2DCONV": 30, "FDTD1": 20, "FDTD2": 20, "FDTD3": 22}
	fusedLoads := func(ex *interp.Exec) int {
		n := 0
		for _, in := range interp.StraightInstrs(ex) {
			if in.Site >= 0 {
				n++
			}
		}
		return n
	}
	var b strings.Builder
	b.WriteString("# kernel instrs straight_ops malleable_instrs malleable_straight_ops\n")
	for _, d := range workloads.RealDescs() {
		n := 1024
		switch {
		case d.TwoDim:
			n = 256
		case d.Name == "SpMV":
			n = 512
		}
		w, err := d.Build(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		mall, err := transform.MalleableGPU(k, inst.ND.Dims)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		ex := launched(t, k, inst.Args, inst.ND)
		margs := append(append([]interp.Arg(nil), inst.Args...), interp.IntArg(8), interp.IntArg(8))
		mex := launched(t, mall.Kernel, margs, inst.ND)
		instrs, fused := interp.StraightLine(ex)
		minstrs, mfused := interp.StraightLine(mex)
		fmt.Fprintf(&b, "%s %d %d %d %d\n", d.Name, instrs, fused, minstrs, mfused)

		if limit, ok := budget[d.Name]; ok {
			if instrs > limit {
				t.Errorf("%s lowers to %d instructions, over its budget of %d", d.Name, instrs, limit)
			}
			if kl, ml := fusedLoads(ex), fusedLoads(mex); kl == 0 || ml != kl {
				t.Errorf("%s: %d fused loads, its malleable form %d", d.Name, kl, ml)
			}
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
	}
}
