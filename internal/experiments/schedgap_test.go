package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestSchedulerGapGolden records how far the paper's Algorithm 1 is from
// the best scheduler on every zoo machine × real kernel, at a
// launch-sized geometry and at the paper's N=4096. Each cell compares
// Algorithm 1 at its best of the 44 DoP configurations with the best
// (configuration, policy) pair over the 44 configurations × {19 static
// splits, the work-queue scheduler, HGuided}. Simulated times are
// bit-identical run to run, so the table is a golden: a change that
// moves a scheduler, a machine or a kernel model shows up here as a
// reviewed diff, and the summary lines are the counts the decision on
// which schedulers stay in production rests on.
func TestSchedulerGapGolden(t *testing.T) {
	const golden = "testdata/sched_gap.golden"
	var b strings.Builder
	fmt.Fprintf(&b, "# N wg machine kernel alg1_s best_s best_policy best_config alg1_behind_%%\n")
	for _, g := range []struct{ n, wg int }{{256, 64}, {4096, 256}} {
		ws, err := workloads.RealWorkloads(g.n, g.wg)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		behind, hgAhead, cells := 0, 0, 0
		for _, w := range ws {
			km, err := workloadModel(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range sim.Zoo() {
				alg1, hg, best := math.Inf(1), math.Inf(1), math.Inf(1)
				var bestPolicy string
				var bestCfg sim.Config
				for _, cfg := range m.Configs() {
					run := func(policy string, dist sim.Distribution, opts sim.SimOptions) float64 {
						r, err := sim.Simulate(m, km, cfg, dist, opts)
						if err != nil {
							t.Fatalf("%s on %s, %+v, %s: %v", w.Name, m.Name, cfg, policy, err)
						}
						if r.Time < best {
							best, bestPolicy, bestCfg = r.Time, policy, cfg
						}
						return r.Time
					}
					alg1 = math.Min(alg1, run("alg1", sim.Dynamic, sim.SimOptions{}))
					if cfg.CPUCores == 0 || cfg.GPUFrac == 0 {
						run("static", sim.Static, sim.SimOptions{}) // one device: nothing to split
					} else {
						for i := 1; i <= 19; i++ {
							run(fmt.Sprintf("static%d%%", 5*i), sim.Static, sim.SimOptions{CPUShare: float64(i) * 0.05})
						}
					}
					run("workqueue", sim.WorkQueue, sim.SimOptions{})
					hg = math.Min(hg, run("hguided", sim.HGuided, sim.SimOptions{}))
				}
				cells++
				if alg1 > 1.05*best {
					behind++
				}
				if alg1 > 1.05*hg {
					hgAhead++
				}
				rows = append(rows, fmt.Sprintf("%d %d %s %s %.6g %.6g %s %dc/%g%% %.1f\n",
					g.n, g.wg, m.Name, w.Name, alg1, best, bestPolicy,
					bestCfg.CPUCores, 100*bestCfg.GPUFrac, 100*(alg1/best-1)))
			}
		}
		fmt.Fprintf(&b, "# N=%d wg=%d: Algorithm 1 more than 5%% behind the best on %d/%d cells; HGuided alone more than 5%% ahead of it on %d/%d\n",
			g.n, g.wg, behind, cells, hgAhead, cells)
		b.WriteString(strings.Join(rows, ""))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
	}
}
