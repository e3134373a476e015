// Package experiments regenerates every table and figure of the Dopia
// paper's evaluation (Figures 1, 3, 9-13 and Tables 5-6) on the simulated
// Kaveri and Skylake machines. Each experiment prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dopia/internal/core"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// Suite holds the shared configuration and caches of the experiment
// drivers. Workload characterizations (the expensive part: one sampled
// profile plus 44 simulations per workload) are computed once per machine
// and reused across experiments, optionally cached on disk.
type Suite struct {
	Out         io.Writer
	Parallelism int
	// SynthLimit truncates the 1,224-workload synthetic grid for quick
	// runs; 0 uses the full grid.
	SynthLimit int
	// RealN is the real-kernel problem size (default
	// workloads.DefaultRealSize).
	RealN int
	// Folds is the cross-validation fold count (paper: 64).
	Folds int
	Seed  int64
	// CacheDir, when set, persists characterizations between runs.
	CacheDir string

	synth    map[string][]*core.WorkloadEval
	real     map[string][]*core.WorkloadEval
	dopiaSel map[string][]Selection
}

// NewSuite returns a suite writing to out with paper-default settings.
func NewSuite(out io.Writer) *Suite {
	return &Suite{
		Out:      out,
		RealN:    workloads.DefaultRealSize,
		Folds:    64,
		Seed:     1,
		synth:    map[string][]*core.WorkloadEval{},
		real:     map[string][]*core.WorkloadEval{},
		dopiaSel: map[string][]Selection{},
	}
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// SynthEvals characterizes (or loads) the synthetic training grid on m.
func (s *Suite) SynthEvals(m *sim.Machine) ([]*core.WorkloadEval, error) {
	return s.evals(m, s.synth, fmt.Sprintf("synth-%s-l%d.json.gz", m.Name, s.SynthLimit),
		core.TrainingSet{Synthetic: s.SynthLimit})
}

// realSet is the Figure 9 / training real-workload set: the fourteen
// kernels at two problem sizes and two work-group organizations.
func (s *Suite) realSet() core.TrainingSet {
	return core.TrainingSet{Synthetic: -1, RealN: []int{s.RealN, s.RealN / 2}}
}

// RealEvals characterizes (or loads) the real-workload grid on m.
func (s *Suite) RealEvals(m *sim.Machine) ([]*core.WorkloadEval, error) {
	return s.evals(m, s.real, fmt.Sprintf("real-%s-n%d.json.gz", m.Name, s.RealN), s.realSet())
}

// evals characterizes set on m once per suite, through the memory cache
// and, when CacheDir is set, the named file under it.
func (s *Suite) evals(m *sim.Machine, cache map[string][]*core.WorkloadEval,
	file string, set core.TrainingSet) ([]*core.WorkloadEval, error) {
	if ev, ok := cache[m.Name]; ok {
		return ev, nil
	}
	cachePath := ""
	if s.CacheDir != "" {
		cachePath = filepath.Join(s.CacheDir, file)
		if ev, err := core.LoadEvals(cachePath, m.Name); err == nil {
			cache[m.Name] = ev
			return ev, nil
		}
	}
	wls, err := set.Workloads()
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateAll(m, wls, s.Parallelism)
	if err != nil {
		return nil, err
	}
	cache[m.Name] = ev
	if cachePath != "" {
		if err := os.MkdirAll(s.CacheDir, 0o755); err == nil {
			_ = core.SaveEvals(cachePath, m.Name, ev)
		}
	}
	return ev, nil
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
