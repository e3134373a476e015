package experiments

import (
	"math"
	"strings"

	"dopia/internal/core"
	"dopia/internal/stats"
)

// Fig13 reproduces Figure 13: the normalized performance (vs the
// exhaustive oracle) of CPU, GPU, ALL and of Dopia with each of the four
// model families, per real-world kernel, on both machines. The kernel
// under evaluation is excluded from the training set (together with its
// other input variants), matching §9.4. The Dopia columns include model
// inference overhead; the "-OH" column of the deployed DT model shows the
// overhead-free value for comparison with the paper's overhead bars.
// Paper: Dopia.DT averages 84% of oracle on both systems; SVR's accuracy
// advantage is eaten by its inference cost; MVT2 is the known outlier.
func Fig13(s *Suite) error {
	for _, m := range Machines() {
		realEv, err := s.RealEvals(m)
		if err != nil {
			return err
		}
		loo, err := s.looSelections(m)
		if err != nil {
			return err
		}

		s.printf("\nFigure 13 (%s): normalized performance to exhaustive search\n", m.Name)
		headers := []string{"kernel", "CPU", "GPU", "ALL",
			"Dopia.LIN", "Dopia.SVR", "Dopia.DT", "Dopia.RF", "DT -OH"}
		var rows [][]string
		sums := make([]float64, 8)
		geos := make([]float64, 8)
		count := 0
		for t, target := range fig13Targets(realEv) {
			vals := []float64{
				target.Perf(m.CPUOnly()),
				target.Perf(m.GPUOnly()),
				target.Perf(m.AllResources()),
			}
			var dtNoOH float64
			for j, tr := range core.Trainers() {
				sel := loo[j][t]
				vals = append(vals, sel.PerfWithOverhead)
				if tr.Name() == "DT" {
					dtNoOH = sel.Perf
				}
			}
			vals = append(vals, dtNoOH)
			row := []string{baseName(target.Name)}
			for i, v := range vals {
				row = append(row, stats.Fmt(v))
				sums[i] += v
				if v > 0 {
					geos[i] += math.Log(v)
				}
			}
			rows = append(rows, row)
			count++
		}
		if count > 0 {
			avg := []string{"Average"}
			geo := []string{"Geomean"}
			for i := range sums {
				avg = append(avg, stats.Fmt(sums[i]/float64(count)))
				geo = append(geo, stats.Fmt(math.Exp(geos[i]/float64(count))))
			}
			rows = append(rows, avg, geo)
		}
		stats.RenderTable(s.Out, headers, rows)
	}
	s.printf("paper: Dopia.DT average 0.84 on both systems, ALL 0.76/0.75; SVR accuracy eaten by inference overhead\n")
	return nil
}

// fig13Targets picks the fourteen kernels at the paper's work-group
// organization (the wg-256 variants), one per kernel family: the first
// wg-256 occurrence comes from the full-size batch.
func fig13Targets(realEv []*core.WorkloadEval) []*core.WorkloadEval {
	var targets []*core.WorkloadEval
	seen := map[string]bool{}
	for _, we := range realEv {
		if base := baseName(we.Name); strings.Contains(we.Name, "wg256") && !seen[base] {
			seen[base] = true
			targets = append(targets, we)
		}
	}
	return targets
}

// baseName strips the size/work-group suffixes from a workload name
// ("GESUMMV.n1024.wg256" -> "GESUMMV").
func baseName(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
