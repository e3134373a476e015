package experiments

import (
	"dopia/internal/core"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

// fig3Workloads returns Figure 3's two kernels, Gesummv and SpMV, at the
// suite's problem size and work-group 256.
func fig3Workloads(s *Suite) ([]*workloads.Workload, error) {
	ws, err := workloads.RealWorkloads(s.RealN, 256)
	if err != nil {
		return nil, err
	}
	var out []*workloads.Workload
	for _, w := range ws {
		if w.Kernel == "gesummv" || w.Kernel == "spmv" {
			out = append(out, w)
		}
	}
	return out, nil
}

// fig3Series times w on m with every CPU core active at each of m's GPU
// steps, in order.
func fig3Series(m *sim.Machine, w *workloads.Workload) ([]*sim.Result, error) {
	ex, _, err := core.TimingExecutor(m, w)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, g := range m.GPUSteps {
		cfgs = append(cfgs, sim.Config{CPUCores: m.CPU.Cores, GPUFrac: g})
	}
	return ex.RunConfigs(cfgs, sched.RunOptions{Dist: sim.Dynamic})
}

// Fig3 reproduces Figure 3: execution time (a) and total memory requests
// (b) of Gesummv and SpMV on Kaveri for increasing GPU core utilization
// with all four CPU threads active. The paper's findings: the best point
// sits near 37.5% GPU utilization for both kernels, and the number of
// memory requests grows sharply once the added GPU threads thrash the
// GPU's shared L2.
func Fig3(s *Suite) error {
	m := sim.Kaveri()
	ws, err := fig3Workloads(s)
	if err != nil {
		return err
	}
	s.printf("Figure 3: Gesummv and SpMV on %s, 4 CPU threads, varying GPU utilization\n", m.Name)
	for _, w := range ws {
		results, err := fig3Series(m, w)
		if err != nil {
			return err
		}
		var rows [][]string
		bestTime := 0.0
		bestUtil := 0.0
		for i, r := range results {
			g := m.GPUSteps[i]
			rows = append(rows, []string{
				stats.Fmt(g * 100),
				stats.Fmt(r.Time * 1e3),
				stats.Fmt(r.DRAMBytes / 64),
				stats.Fmt(r.Transactions),
			})
			if bestTime == 0 || r.Time < bestTime {
				bestTime, bestUtil = r.Time, g
			}
		}
		s.printf("\n%s:\n", w.Name)
		stats.RenderTable(s.Out, []string{
			"GPU util %", "exec time (ms)", "mem requests (#)", "GPU requests (#)",
		}, rows)
		s.printf("best GPU utilization: %.1f%% (paper: 37.5%% for both kernels)\n", bestUtil*100)
	}
	return nil
}
