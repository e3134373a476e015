// Package experiments regenerates every table and figure of the Dopia
// paper's evaluation (Figures 1, 3, 9-13 and Tables 5-6) on the simulated
// Kaveri and Skylake machines. Each experiment prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"fmt"
	"io"

	"dopia/internal/core"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// Suite holds the shared configuration and caches of the experiment
// drivers. Workload characterizations (one sampled profile plus 44
// simulations per workload), cross-validated selections and Figure 13's
// leave-one-out selections are computed once per machine and reused
// across experiments.
type Suite struct {
	Out io.Writer
	// SynthLimit truncates the 1,224-workload synthetic grid for quick
	// runs; 0 uses the full grid.
	SynthLimit int
	// RealN is the real-kernel problem size (default
	// workloads.DefaultRealSize).
	RealN int
	// Folds is the cross-validation fold count (paper: 64).
	Folds int
	Seed  int64

	synth map[string][]*core.WorkloadEval
	real  map[string][]*core.WorkloadEval
	cv    map[string][]Selection   // machine + "/" + model family
	loo   map[string][][]Selection // machine -> per model family, per fig13Targets
}

// NewSuite returns a suite writing to out with paper-default settings.
func NewSuite(out io.Writer) *Suite {
	return &Suite{
		Out:   out,
		RealN: workloads.DefaultRealSize,
		Folds: 64,
		Seed:  1,
		synth: map[string][]*core.WorkloadEval{},
		real:  map[string][]*core.WorkloadEval{},
		cv:    map[string][]Selection{},
		loo:   map[string][][]Selection{},
	}
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// SynthEvals characterizes the synthetic training grid on m.
func (s *Suite) SynthEvals(m *sim.Machine) ([]*core.WorkloadEval, error) {
	return s.evals(m, s.synth, core.TrainingSet{Synthetic: s.SynthLimit})
}

// realSet is the Figure 9 / training real-workload set: the fourteen
// kernels at two problem sizes and two work-group organizations.
func (s *Suite) realSet() core.TrainingSet {
	return core.TrainingSet{Synthetic: -1, RealN: []int{s.RealN, s.RealN / 2}}
}

// RealEvals characterizes the real-workload grid on m.
func (s *Suite) RealEvals(m *sim.Machine) ([]*core.WorkloadEval, error) {
	return s.evals(m, s.real, s.realSet())
}

// evals characterizes set on m once per suite.
func (s *Suite) evals(m *sim.Machine, cache map[string][]*core.WorkloadEval,
	set core.TrainingSet) ([]*core.WorkloadEval, error) {
	if ev, ok := cache[m.Name]; ok {
		return ev, nil
	}
	wls, err := set.Workloads()
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateAll(m, wls, 0)
	if err != nil {
		return nil, err
	}
	cache[m.Name] = ev
	return ev, nil
}

// crossVal is the suite's k-fold cross-validation of one model family on
// m's synthetic grid (CrossValSelections with the suite's folds, at most
// half the workloads, and seed), computed once per suite.
func (s *Suite) crossVal(m *sim.Machine, tr ml.Trainer) ([]Selection, error) {
	key := m.Name + "/" + tr.Name()
	if sel, ok := s.cv[key]; ok {
		return sel, nil
	}
	evals, err := s.SynthEvals(m)
	if err != nil {
		return nil, err
	}
	folds := s.Folds
	if folds > len(evals) {
		folds = len(evals) / 2
	}
	sel, err := CrossValSelections(m, evals, tr, folds, s.Seed)
	if err != nil {
		return nil, err
	}
	s.cv[key] = sel
	return sel, nil
}

// looSelections is Figure 13's leave-one-family-out selection on m: for
// each model family of core.Trainers, in order, one Selection per
// fig13Targets target by a model trained on the synthetic grid and the
// real set minus every variant of the target's kernel. It is computed
// once per suite.
func (s *Suite) looSelections(m *sim.Machine) ([][]Selection, error) {
	if sel, ok := s.loo[m.Name]; ok {
		return sel, nil
	}
	synth, err := s.SynthEvals(m)
	if err != nil {
		return nil, err
	}
	realEv, err := s.RealEvals(m)
	if err != nil {
		return nil, err
	}
	train := append(append([]*core.WorkloadEval(nil), synth...), realEv...)
	var out [][]Selection
	for _, tr := range core.Trainers() {
		var sel []Selection
		for _, target := range fig13Targets(realEv) {
			family := baseName(target.Name)
			se, err := LeaveOneOutSelection(m, train, target,
				func(name string) bool { return baseName(name) == family }, tr)
			if err != nil {
				return nil, err
			}
			sel = append(sel, se)
		}
		out = append(out, sel)
	}
	s.loo[m.Name] = out
	return out, nil
}

// Machines returns the two evaluated platforms.
func Machines() []*sim.Machine {
	return []*sim.Machine{sim.Kaveri(), sim.Skylake()}
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(s *Suite) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Gesummv DoP heatmap on Kaveri (Figure 1)", Fig1},
		{"fig3", "Execution time and memory requests vs GPU utilization (Figure 3)", Fig3},
		{"fig9", "Dynamic vs static workload distribution (Figure 9)", Fig9},
		{"fig10", "ML model accuracy and inference overhead (Figure 10)", Fig10},
		{"table5", "Exact best-configuration classifications (Table 5)", Table5},
		{"fig11", "Euclidean distance error and normalized performance (Figure 11)", Fig11},
		{"fig12", "Mean normalized performance per constant configuration (Figure 12)", Fig12},
		{"table6", "Static partitionings vs Dopia (Table 6)", Table6},
		{"fig13", "Real-world kernels: Dopia vs baselines (Figure 13)", Fig13},
		{"schedsweep", "Co-execution policy sweep across the machine zoo", SchedSweep},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
