package experiments

import (
	"fmt"

	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/stats"
)

// dopiaSelections runs the paper's Dopia pipeline (DT model, k-fold CV
// over workloads) on a machine's synthetic characterizations.
func dopiaSelections(s *Suite, m *sim.Machine) ([]Selection, error) {
	return s.crossVal(m, ml.TreeTrainer{})
}

// Table5 reproduces Table 5: the number of workloads for which each
// approach names the exactly-best configuration — for the fixed
// configurations, the count of workloads whose true best *is* that
// configuration; for Dopia, the count of exact predictions.
// Paper: Kaveri 253/15/7/611, Skylake 27/57/19/334 (of 1,224).
func Table5(s *Suite) error {
	s.printf("\nTable 5: correct best-configuration classifications\n")
	var rows [][]string
	for _, m := range Machines() {
		evals, err := s.SynthEvals(m)
		if err != nil {
			return err
		}
		dopia, err := dopiaSelections(s, m)
		if err != nil {
			return err
		}
		cpu := ExactCount(FixedSelections(m, evals, m.CPUOnly()))
		gpu := ExactCount(FixedSelections(m, evals, m.GPUOnly()))
		all := ExactCount(FixedSelections(m, evals, m.AllResources()))
		rows = append(rows, []string{
			m.Name,
			itoa(cpu), itoa(gpu), itoa(all), itoa(ExactCount(dopia)),
			itoa(len(evals)),
		})
	}
	stats.RenderTable(s.Out, []string{"system", "CPU", "GPU", "ALL", "Dopia", "workloads"}, rows)
	s.printf("paper (of 1224): Kaveri 253/15/7/611, Skylake 27/57/19/334\n")
	return nil
}

// Fig11 reproduces Figure 11: (a) the normalized Euclidean distance from
// the selected to the best configuration and (b) the achieved normalized
// performance, for CPU/GPU/ALL/Dopia under cross-validation. The paper's
// findings: Dopia's mean distance error is 15% (Kaveri) / 22% (Skylake),
// and its mean normalized performance 94% / 92%.
func Fig11(s *Suite) error {
	for _, m := range Machines() {
		evals, err := s.SynthEvals(m)
		if err != nil {
			return err
		}
		dopia, err := dopiaSelections(s, m)
		if err != nil {
			return err
		}
		sets := []struct {
			name string
			sel  []Selection
		}{
			{"CPU", FixedSelections(m, evals, m.CPUOnly())},
			{"GPU", FixedSelections(m, evals, m.GPUOnly())},
			{"ALL", FixedSelections(m, evals, m.AllResources())},
			{"Dopia", dopia},
		}
		s.printf("\nFigure 11a (%s): Euclidean distance error\n", m.Name)
		var rows [][]string
		for _, set := range sets {
			rows = append(rows, boxRow(set.name, stats.BoxOf(Dists(set.sel))))
		}
		stats.RenderTable(s.Out, []string{"config", "mean", "median", "p5", "p25", "p75", "p95"}, rows)

		s.printf("\nFigure 11b (%s): normalized performance vs Exhaustive\n", m.Name)
		rows = nil
		for _, set := range sets {
			rows = append(rows, boxRow(set.name, stats.BoxOf(Perfs(set.sel))))
		}
		stats.RenderTable(s.Out, []string{"config", "mean", "median", "p5", "p25", "p75", "p95"}, rows)
	}
	s.printf("paper: Dopia mean distance 0.15/0.22; mean normalized perf 0.94/0.92\n")
	return nil
}

// Table6 reproduces Table 6: the mean normalized performance of the fixed
// partitionings, the best constant allocation, and Dopia, against the
// exhaustive oracle. Paper (Kaveri/Skylake): CPU 70.7/60.7, GPU 18.6/39.5,
// ALL 62.3/69.6, best-const 82.5/81.6, Dopia 94.1/92.2 (percent).
func Table6(s *Suite) error {
	s.printf("\nTable 6: normalized performance vs Exhaustive (mean over workloads)\n")
	headers := []string{"configuration", "DoP"}
	for _, m := range Machines() {
		headers = append(headers, m.Name)
	}
	type rowAcc struct {
		name string
		dop  string
		vals []string
	}
	rows := []rowAcc{
		{name: "CPU", dop: "CPU 1.0, GPU 0"},
		{name: "GPU", dop: "CPU 0, GPU 1.0"},
		{name: "ALL", dop: "CPU 1.0, GPU 1.0"},
		{name: "Best const alloc", dop: "per machine"},
		{name: "Dopia", dop: "ML-driven"},
	}
	for _, m := range Machines() {
		evals, err := s.SynthEvals(m)
		if err != nil {
			return err
		}
		mean := func(cfg sim.Config) float64 {
			return stats.Mean(Perfs(FixedSelections(m, evals, cfg)))
		}
		// Best constant allocation: the single configuration with the
		// highest mean normalized performance.
		bestConst, bestConstV := sim.Config{}, -1.0
		for _, cfg := range m.Configs() {
			if v := mean(cfg); v > bestConstV {
				bestConst, bestConstV = cfg, v
			}
		}
		dopia, err := dopiaSelections(s, m)
		if err != nil {
			return err
		}
		vals := []float64{
			mean(m.CPUOnly()), mean(m.GPUOnly()), mean(m.AllResources()),
			bestConstV, stats.Mean(Perfs(dopia)),
		}
		for i := range rows {
			rows[i].vals = append(rows[i].vals, stats.Fmt(vals[i]*100)+"%")
		}
		rows[3].dop = mergeDop(rows[3].dop, m, bestConst)
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, append([]string{r.name, r.dop}, r.vals...))
	}
	stats.RenderTable(s.Out, headers, cells)
	s.printf("paper: CPU 70.7/60.7, GPU 18.6/39.5, ALL 62.3/69.6, best-const 82.5/81.6 (CPU 1.0 GPU 0.125), Dopia 94.1/92.2\n")
	return nil
}

func mergeDop(prev string, m *sim.Machine, cfg sim.Config) string {
	cur := fmt.Sprintf("CPU %.2g, GPU %.3g", m.CPUUtil(cfg), cfg.GPUFrac)
	if prev == "per machine" {
		return cur
	}
	return prev + " | " + cur
}

// Fig12 reproduces Figure 12: the mean normalized performance of every
// constant (CPU, GPU) allocation over all synthetic workloads, for both
// machines — the heatmap showing that no constant configuration
// approaches the oracle.
func Fig12(s *Suite) error {
	for _, m := range Machines() {
		evals, err := s.SynthEvals(m)
		if err != nil {
			return err
		}
		s.printf("\nFigure 12 (%s): mean normalized performance per constant configuration\n", m.Name)
		renderConfigHeatmap(s, m, func(cfg sim.Config) float64 {
			return stats.Mean(Perfs(FixedSelections(m, evals, cfg)))
		})
	}
	return nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
