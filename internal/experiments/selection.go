package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dopia/internal/core"
	"dopia/internal/ml"
	"dopia/internal/sim"
)

// Selection records the outcome of choosing a configuration for one
// workload: what was chosen, how it performed against the exhaustive
// oracle, how far it was from the best configuration in the (CPU, GPU)
// allocation plane, and how long the choice took.
type Selection struct {
	Workload string
	Chosen   sim.Config
	// Perf is the achieved normalized performance (best time / chosen
	// time), ignoring selection overhead.
	Perf float64
	// PerfWithOverhead divides by chosen time plus inference time.
	PerfWithOverhead float64
	// Dist is the Euclidean distance from the chosen to the best
	// configuration in normalized (CPU_util, GPU_util) space, divided by
	// sqrt(2) (the paper's metric).
	Dist float64
	// Exact marks chosen == best.
	Exact bool
	// InferSec is the wall-clock cost of scoring all 44 configurations.
	InferSec float64
}

// distError computes the paper's normalized Euclidean distance metric.
func distError(m *sim.Machine, chosen, best sim.Config) float64 {
	dc := m.CPUUtil(chosen) - m.CPUUtil(best)
	dg := chosen.GPUFrac - best.GPUFrac
	return math.Sqrt(dc*dc+dg*dg) / math.Sqrt2
}

// FixedSelections evaluates a fixed configuration against every workload.
func FixedSelections(m *sim.Machine, evals []*core.WorkloadEval, cfg sim.Config) []Selection {
	out := make([]Selection, 0, len(evals))
	for _, we := range evals {
		out = append(out, Selection{
			Workload:         we.Name,
			Chosen:           cfg,
			Perf:             we.Perf(cfg),
			PerfWithOverhead: we.Perf(cfg),
			Dist:             distError(m, cfg, we.Best),
			Exact:            cfg == we.Best,
		})
	}
	return out
}

// selectionOf lets model choose a configuration for we (core.SelectConfig)
// and records the outcome, timing the choice.
func selectionOf(m *sim.Machine, we *core.WorkloadEval, model ml.Model) (Selection, error) {
	start := time.Now()
	chosen, _, _, err := core.SelectConfig(m, model, we.Base)
	inferSec := time.Since(start).Seconds()
	if err != nil {
		return Selection{}, fmt.Errorf("experiments: %s: %w", we.Name, err)
	}
	t := we.Time(chosen)
	perf := 0.0
	perfOH := 0.0
	if t > 0 && !math.IsInf(t, 1) {
		perf = we.BestTime / t
		perfOH = we.BestTime / (t + inferSec)
	}
	return Selection{
		Workload:         we.Name,
		Chosen:           chosen,
		Perf:             perf,
		PerfWithOverhead: perfOH,
		Dist:             distError(m, chosen, we.Best),
		Exact:            chosen == we.Best,
		InferSec:         inferSec,
	}, nil
}

// CrossValSelections performs k-fold cross-validation over *workloads*
// (the paper's §9.2/9.3 methodology): for each fold, a model is trained on
// the samples of the other folds' workloads and then picks a configuration
// for every held-out workload.
func CrossValSelections(m *sim.Machine, evals []*core.WorkloadEval,
	tr ml.Trainer, folds int, seed int64) ([]Selection, error) {
	if folds < 2 || folds > len(evals) {
		return nil, fmt.Errorf("experiments: cannot make %d folds from %d workloads", folds, len(evals))
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(evals))
	var out []Selection
	for f := 0; f < folds; f++ {
		lo := f * len(evals) / folds
		hi := (f + 1) * len(evals) / folds
		var train []*core.WorkloadEval
		for i, pi := range perm {
			if i < lo || i >= hi {
				train = append(train, evals[pi])
			}
		}
		model, err := core.Train(m, tr, train)
		if err != nil {
			return nil, fmt.Errorf("experiments: fold %d: %w", f, err)
		}
		for i := lo; i < hi; i++ {
			sel, err := selectionOf(m, evals[perm[i]], model)
			if err != nil {
				return nil, err
			}
			out = append(out, sel)
		}
	}
	return out, nil
}

// LeaveOneOutSelection trains on every characterization except those whose
// name matches exclude(name)==true, then selects for the target workload
// (the §9.4 methodology: the kernel under evaluation is excluded from
// training).
func LeaveOneOutSelection(m *sim.Machine, train []*core.WorkloadEval,
	target *core.WorkloadEval, exclude func(name string) bool,
	tr ml.Trainer) (Selection, error) {
	model, err := trainExcluding(m, train, exclude, tr)
	if err != nil {
		return Selection{}, err
	}
	return selectionOf(m, target, model)
}

// trainExcluding fits tr to every characterization of train whose name
// exclude does not match.
func trainExcluding(m *sim.Machine, train []*core.WorkloadEval,
	exclude func(name string) bool, tr ml.Trainer) (ml.Model, error) {
	var kept []*core.WorkloadEval
	for _, we := range train {
		if !exclude(we.Name) {
			kept = append(kept, we)
		}
	}
	return core.Train(m, tr, kept)
}

// Perfs extracts the Perf column.
func Perfs(sel []Selection) []float64 {
	out := make([]float64, len(sel))
	for i, s := range sel {
		out[i] = s.Perf
	}
	return out
}

// Dists extracts the Dist column.
func Dists(sel []Selection) []float64 {
	out := make([]float64, len(sel))
	for i, s := range sel {
		out[i] = s.Dist
	}
	return out
}

// ExactCount counts exact best-configuration matches.
func ExactCount(sel []Selection) int {
	n := 0
	for _, s := range sel {
		if s.Exact {
			n++
		}
	}
	return n
}
