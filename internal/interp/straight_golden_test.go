package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"dopia/internal/interp"
)

// TestStraightLineGolden records the size of each of the fourteen real
// kernels' lowered programs, and of its malleable GPU form's, at the
// geometry the relaunch benchmark runs them (forRelaunchKernels): all
// instructions, and the straight-line superinstructions among them. A
// lowering change that grows a body or drops a fused op shows up here as
// a reviewed diff. It also holds the stencils to their budgets, and their
// malleable forms to as many fused loads as the kernel itself.
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
	forRelaunchKernels(t, func(rk relaunchKernel) {
		ex := launched(t, rk.k, rk.inst.Args, rk.inst.ND)
		mex := launched(t, rk.mall, rk.margs, rk.inst.ND)
		instrs, fused := interp.StraightLine(ex)
		minstrs, mfused := interp.StraightLine(mex)
		fmt.Fprintf(&b, "%s %d %d %d %d\n", rk.name, instrs, fused, minstrs, mfused)

		if limit, ok := budget[rk.name]; ok {
			if instrs > limit {
				t.Errorf("%s lowers to %d instructions, over its budget of %d", rk.name, instrs, limit)
			}
			if kl, ml := fusedLoads(ex), fusedLoads(mex); kl == 0 || ml != kl {
				t.Errorf("%s: %d fused loads, its malleable form %d", rk.name, kl, ml)
			}
		}
	})
	checkGolden(t, golden, b.String())
}
