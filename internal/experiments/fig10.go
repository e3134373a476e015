package experiments

import (
	"dopia/internal/core"
	"dopia/internal/stats"
)

// Fig10 reproduces Figure 10: (a) the distribution of achieved normalized
// performance when each ML model family selects configurations under
// k-fold cross-validation on the 1,224 synthetic workloads, and (b) the
// wall-clock inference overhead of scoring all 44 configurations. The
// paper's findings: tree-based models (DT, RF) are the most accurate, and
// LIN/DT inference is orders of magnitude cheaper than SVR/RF.
func Fig10(s *Suite) error {
	for _, m := range Machines() {
		evals, err := s.SynthEvals(m)
		if err != nil {
			return err
		}
		folds := s.Folds
		if folds > len(evals) {
			folds = len(evals) / 2
		}
		s.printf("\nFigure 10 (%s): %d-fold cross-validation on %d synthetic workloads\n",
			m.Name, folds, len(evals))
		var rows [][]string
		for _, tr := range core.Trainers() {
			sel, err := s.crossVal(m, tr)
			if err != nil {
				return err
			}
			b := stats.BoxOf(Perfs(sel))
			var inferMs float64
			for _, se := range sel {
				inferMs += se.InferSec * 1e3
			}
			inferMs /= float64(len(sel))
			rows = append(rows, []string{
				tr.Name(), stats.Fmt(b.Mean), stats.Fmt(b.Median),
				stats.Fmt(b.P25), stats.Fmt(b.P75),
				stats.Fmt(inferMs),
			})
		}
		stats.RenderTable(s.Out, []string{
			"model", "mean perf", "median", "p25", "p75", "infer (ms, 44 cfgs)",
		}, rows)
	}
	s.printf("paper: DT/RF most accurate; LIN/DT inference orders of magnitude cheaper than SVR/RF\n")
	return nil
}
