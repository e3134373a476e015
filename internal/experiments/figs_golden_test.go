package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"dopia/internal/sim"
)

// g renders a float exactly: the shortest decimal that parses back to the
// same bits.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares got with the golden file's contents and prints
// got in full when they differ, so a deliberate change can be recorded.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
	}
}

// TestFig3Fig9Golden pins, at tinySuite scale, every row behind Figure 3
// (per GPU step: time, memory requests, GPU requests) and every ratio
// behind Figure 9's boxes (per workload and machine: CPU-only, GPU-only
// and dynamic time over the best static split). The printed figures show
// only rounded summaries; a change to how either figure's executors are
// built, bound or timed shows up here.
func TestFig3Fig9Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	const golden = "testdata/fig3_fig9.golden"
	s := sharedTinySuite()
	var b strings.Builder
	ws, err := fig3Workloads(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		m := sim.Kaveri()
		results, err := fig3Series(m, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			fmt.Fprintf(&b, "fig3 %s gpu=%s time=%s mem=%s gpureq=%s\n",
				w.Name, g(m.GPUSteps[i]), g(r.Time), g(r.DRAMBytes/64), g(r.Transactions))
		}
	}
	for _, m := range Machines() {
		ratios, err := fig9Ratios(s, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ratios {
			fmt.Fprintf(&b, "fig9 %s %s cpu=%s gpu=%s dynamic=%s\n",
				m.Name, r.Workload, g(r.CPU), g(r.GPU), g(r.Dynamic))
		}
	}
	checkGolden(t, golden, b.String())
}
