package experiments

import (
	"fmt"
	"math"

	"dopia/internal/core"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

// SchedSweepRow is one cell of the policy sweep: the simulated
// execution time of one workload on one machine under one co-execution
// scheduling policy.
type SchedSweepRow struct {
	Machine  string  `json:"machine"`
	Workload string  `json:"workload"`
	Sched    string  `json:"sched"`
	Time     float64 `json:"time_sec"`
}

// SchedPolicies lists the compared policies in column order: the best
// of nineteen static splits, the paper's Algorithm 1, the fixed-chunk
// work-queue scheduler, and HGuided.
func SchedPolicies() []string {
	return []string{"static", "alg1", "dynamic", "hguided"}
}

// workloadModel profiles a workload once and returns its kernel model.
// The model captures only kernel-intrinsic quantities (instruction
// mixes, footprints, access patterns), so a single profile serves every
// machine of the zoo.
func workloadModel(w *workloads.Workload) (*sim.KernelModel, error) {
	ex, _, err := core.TimingExecutor(sim.Kaveri(), w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	km, err := ex.Model()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return km, nil
}

// SchedSweepRows simulates every real workload on every zoo machine
// under each policy of SchedPolicies. "static" reports the best of the
// nineteen 5%-step splits (the strongest static baseline), matching the
// sweep BestStatic performs.
func SchedSweepRows(n, wg int) ([]SchedSweepRow, error) {
	ws, err := workloads.RealWorkloads(n, wg)
	if err != nil {
		return nil, err
	}
	var rows []SchedSweepRow
	for _, w := range ws {
		km, err := workloadModel(w)
		if err != nil {
			return nil, err
		}
		for _, m := range sim.Zoo() {
			all := m.AllResources()
			bestStatic := math.Inf(1)
			for i := 1; i <= 19; i++ {
				r, err := sim.Simulate(m, km, all, sim.Static,
					sim.SimOptions{CPUShare: float64(i) * 0.05})
				if err != nil {
					return nil, fmt.Errorf("%s on %s: static %d%%: %w", w.Name, m.Name, i*5, err)
				}
				if r.Time < bestStatic {
					bestStatic = r.Time
				}
			}
			times := map[string]float64{"static": bestStatic}
			for _, p := range []struct {
				name string
				dist sim.Distribution
			}{
				{"alg1", sim.Dynamic},
				{"dynamic", sim.WorkQueue},
				{"hguided", sim.HGuided},
			} {
				r, err := sim.Simulate(m, km, all, p.dist, sim.SimOptions{})
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %s: %w", w.Name, m.Name, p.name, err)
				}
				times[p.name] = r.Time
			}
			for _, p := range SchedPolicies() {
				rows = append(rows, SchedSweepRow{
					Machine:  m.Name,
					Workload: w.Name,
					Sched:    p,
					Time:     times[p],
				})
			}
		}
	}
	return rows, nil
}

// SchedSweep is the policy-sweep experiment: per machine, the execution
// time of Algorithm 1, the work-queue scheduler, and HGuided normalized
// to the best static split, over the real-workload set. The EngineCL
// result this reproduces: adaptive schedulers match or beat the best
// static split wherever device throughput is skewed or shifts
// mid-kernel, on every machine shape from integrated APUs to a discrete
// GPU behind PCIe.
func SchedSweep(s *Suite) error {
	rows, err := SchedSweepRows(s.RealN, 256)
	if err != nil {
		return err
	}
	byMachine := map[string]map[string]map[string]float64{} // machine -> workload -> sched -> time
	for _, r := range rows {
		if byMachine[r.Machine] == nil {
			byMachine[r.Machine] = map[string]map[string]float64{}
		}
		if byMachine[r.Machine][r.Workload] == nil {
			byMachine[r.Machine][r.Workload] = map[string]float64{}
		}
		byMachine[r.Machine][r.Workload][r.Sched] = r.Time
	}
	for _, m := range sim.Zoo() {
		wl := byMachine[m.Name]
		norm := map[string][]float64{}
		wins := map[string]int{}
		for _, times := range wl {
			static := times["static"]
			for _, p := range SchedPolicies()[1:] {
				norm[p] = append(norm[p], times[p]/static)
				if times[p] < static {
					wins[p]++
				}
			}
		}
		s.printf("\nScheduler sweep (%s): time normalized to best STATIC over %d workloads\n",
			m.Name, len(wl))
		var tbl [][]string
		for _, p := range SchedPolicies()[1:] {
			b := stats.BoxOf(norm[p])
			tbl = append(tbl, append(boxRow(p, b), fmt.Sprintf("%d", wins[p])))
		}
		stats.RenderTable(s.Out,
			[]string{"policy", "mean", "median", "p5", "p25", "p75", "p95", "wins"}, tbl)
	}
	return nil
}
