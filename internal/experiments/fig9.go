package experiments

import (
	"dopia/internal/core"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/stats"
)

// Fig9 reproduces Figure 9: the execution time of CPU-only, GPU-only,
// best-static (19 splits, no dispatch granularity), and Dopia's dynamic
// workload distribution, normalized to best-static, over the real-world
// kernels at several input sizes, on both machines. The paper's finding:
// dynamic distribution matches or beats the best static split because the
// 1/10th-chunk dispatch is finer-grained than a 5% static step, while
// single-device execution is far worse on average.
func Fig9(s *Suite) error {
	for _, m := range Machines() {
		ratios, err := fig9Ratios(s, m)
		if err != nil {
			return err
		}
		var cpuN, gpuN, dynN []float64
		for _, r := range ratios {
			cpuN = append(cpuN, r.CPU)
			gpuN = append(gpuN, r.GPU)
			dynN = append(dynN, r.Dynamic)
		}
		s.printf("\nFigure 9 (%s): execution time normalized to best STATIC over %d workloads\n",
			m.Name, len(ratios))
		rows := [][]string{
			boxRow("CPU", stats.BoxOf(cpuN)),
			boxRow("GPU", stats.BoxOf(gpuN)),
			boxRow("STATIC", stats.BoxOf(ones(len(cpuN)))),
			boxRow("DYNAMIC", stats.BoxOf(dynN)),
		}
		stats.RenderTable(s.Out, []string{"config", "mean", "median", "p5", "p25", "p75", "p95"}, rows)
		dynBox := stats.BoxOf(dynN)
		s.printf("dynamic mean %.3fx of static (paper: ~1x or better; CPU/GPU-only much worse)\n",
			dynBox.Mean)
	}
	return nil
}

// fig9Ratio is one workload of Figure 9: its CPU-only, GPU-only and
// dynamic (ALL resources) times, each divided by its best static split.
type fig9Ratio struct {
	Workload          string
	CPU, GPU, Dynamic float64
}

// fig9Ratios times every workload of the suite's real set on m.
func fig9Ratios(s *Suite, m *sim.Machine) ([]fig9Ratio, error) {
	grid, err := s.realSet().Workloads()
	if err != nil {
		return nil, err
	}
	var out []fig9Ratio
	for _, w := range grid {
		ex, _, err := core.TimingExecutor(m, w)
		if err != nil {
			return nil, err
		}
		all := m.AllResources()
		cpu, err := ex.Run(m.CPUOnly(), sched.RunOptions{Dist: sim.Static, CPUShare: 1})
		if err != nil {
			return nil, err
		}
		gpu, err := ex.Run(m.GPUOnly(), sched.RunOptions{Dist: sim.Static})
		if err != nil {
			return nil, err
		}
		_, static, err := ex.BestStatic(all)
		if err != nil {
			return nil, err
		}
		dyn, err := ex.Run(all, sched.RunOptions{Dist: sim.Dynamic})
		if err != nil {
			return nil, err
		}
		out = append(out, fig9Ratio{
			Workload: w.Name,
			CPU:      cpu.Time / static.Time,
			GPU:      gpu.Time / static.Time,
			Dynamic:  dyn.Time / static.Time,
		})
	}
	return out, nil
}

func boxRow(name string, b stats.Box) []string {
	return []string{
		name, stats.Fmt(b.Mean), stats.Fmt(b.Median),
		stats.Fmt(b.P5), stats.Fmt(b.P25), stats.Fmt(b.P75), stats.Fmt(b.P95),
	}
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
