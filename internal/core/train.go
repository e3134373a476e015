package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"dopia/internal/analysis"
	"dopia/internal/ml"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// ConfigTime is one (configuration, simulated time) measurement.
type ConfigTime struct {
	Config sim.Config
	Time   float64
}

// WorkloadEval is the full DoP characterization of one workload: its
// Table 1 base features and the simulated execution time of every
// configuration under Dopia's dynamic distribution. It is both a block of
// training data and the ground truth the evaluation section compares
// against (the "Exhaustive" oracle is the row's minimum).
type WorkloadEval struct {
	Name     string
	Base     ml.Features
	Times    []ConfigTime
	Best     sim.Config
	BestTime float64
}

// Perf returns the normalized performance of a configuration
// (bestTime/time, 1 = optimal). Unknown configurations return 0.
func (we *WorkloadEval) Perf(cfg sim.Config) float64 {
	for _, ct := range we.Times {
		if ct.Config == cfg {
			if ct.Time <= 0 {
				return 0
			}
			return we.BestTime / ct.Time
		}
	}
	return 0
}

// Time returns the simulated time of a configuration, or +Inf if unknown.
func (we *WorkloadEval) Time(cfg sim.Config) float64 {
	for _, ct := range we.Times {
		if ct.Config == cfg {
			return ct.Time
		}
	}
	return math.Inf(1)
}

// TimingExecutor builds the executor every timing-only sweep of a
// workload runs on: w's kernel, launched on m over views of w's inputs
// (workloads.Views), with Dopia's GPU charged as the malleable form. It
// also returns w's Table 1 base features. Binding views is safe because a
// timing-only executor never writes a bound buffer: Executor.Model's
// sampled profile writes private copies of the written ones. So several
// such executors may bind views of one master at once, and the returned
// executor must never Run functionally.
func TimingExecutor(m *sim.Machine, w *workloads.Workload) (*sched.Executor, ml.Features, error) {
	k, err := w.CompileKernel()
	if err != nil {
		return nil, ml.Features{}, err
	}
	res, err := analysis.Analyze(k)
	if err != nil {
		return nil, ml.Features{}, fmt.Errorf("core: %s: %w", w.Name, err)
	}
	ex, err := sched.NewExecutor(m, k, nil)
	if err != nil {
		return nil, ml.Features{}, err
	}
	ex.AssumeMalleable = true
	inst, err := w.Views()
	if err != nil {
		return nil, ml.Features{}, err
	}
	if err := ex.Bind(inst.Args...); err != nil {
		return nil, ml.Features{}, err
	}
	if err := ex.Launch(inst.ND); err != nil {
		return nil, ml.Features{}, err
	}
	return ex, BaseFeatures(res, inst.ND), nil
}

// EvaluateWorkload profiles a workload once and simulates every DoP
// configuration of the machine with dynamic distribution on its
// TimingExecutor, so a characterization whose model the kernel's memo
// holds copies no buffer.
func EvaluateWorkload(m *sim.Machine, w *workloads.Workload) (*WorkloadEval, error) {
	ex, base, err := TimingExecutor(m, w)
	if err != nil {
		return nil, err
	}
	// The 44-config sweep is timing-only: RunConfigs builds the model
	// once, then simulates the configurations on this goroutine.
	cfgs := m.Configs()
	results, err := ex.RunConfigs(cfgs, sched.RunOptions{Dist: sim.Dynamic})
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", w.Name, err)
	}
	we := &WorkloadEval{Name: w.Name, Base: base, Times: make([]ConfigTime, len(cfgs))}
	for i, cfg := range cfgs {
		r := results[i]
		we.Times[i] = ConfigTime{Config: cfg, Time: r.Time}
		if we.BestTime == 0 || r.Time < we.BestTime {
			we.Best, we.BestTime = cfg, r.Time
		}
	}
	return we, nil
}

// EvaluateAll characterizes a set of workloads on parallelism workers
// (0 = GOMAXPROCS). Workers own their executors, each a TimingExecutor
// whose views are placed in its own address space.
func EvaluateAll(m *sim.Machine, wls []*workloads.Workload, parallelism int) ([]*WorkloadEval, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	out := make([]*WorkloadEval, len(wls))
	errs := make([]error, len(wls))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = EvaluateWorkload(m, wls[i])
			}
		}()
	}
	for i := range wls {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s: %w", wls[i].Name, err)
		}
	}
	return out, nil
}

// BuildDataset turns workload characterizations into the ML training set:
// one sample per (workload, configuration) with the normalized performance
// as the target — 44 samples per workload, 53,856 for the synthetic grid
// plus the real kernels (the paper's 54,472 includes the real workloads).
func BuildDataset(m *sim.Machine, evals []*WorkloadEval) *ml.Dataset {
	d := &ml.Dataset{}
	for _, we := range evals {
		for _, ct := range we.Times {
			y := 0.0
			if ct.Time > 0 {
				y = we.BestTime / ct.Time
			}
			d.Add(WithConfig(we.Base, m, ct.Config), y)
		}
	}
	return d
}

// Trainers returns the four model families of the paper's §9.2 comparison.
func Trainers() []ml.Trainer {
	return []ml.Trainer{
		ml.LinearTrainer{},
		ml.SVRTrainer{},
		ml.TreeTrainer{},
		ml.ForestTrainer{Trees: 30, Seed: 1},
	}
}

// TrainerByName returns the trainer with the given name (LIN/SVR/DT/RF).
func TrainerByName(name string) (ml.Trainer, error) {
	for _, tr := range Trainers() {
		if tr.Name() == name {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("core: unknown model %q (want LIN, SVR, DT, or RF)", name)
}

// TrainingSet declares the workloads a model is trained on: a slice of
// the synthetic grid, then the real kernels at each listed size, each size
// at work-group 64 and then 256.
type TrainingSet struct {
	// Synthetic is how many synthetic workloads to take: every
	// len(grid)/Synthetic-th one, so a small set spreads over every pattern
	// family (above half the grid the stride is 1: a prefix). 0 (or at
	// least the grid's size) takes the whole grid; a negative count none.
	Synthetic int
	// RealN lists the problem sizes at which the fourteen real kernels
	// join the set.
	RealN []int
}

// DefaultTrainingSet is the one set every shipped model trains on
// (BootstrapModel's, hence dopia-train -save-model's, and the examples').
// 48 synthetic workloads give a stride of 25, which visits all six (size,
// work-group) pairs of the grid's innermost loops; the real kernels join
// at n = 1024, 256 and 64, as the paper trains on its real workloads.
// Fig. 13's n = 4096 stays out: every tool characterizes this set at
// start-up, and 4096 makes that about ten times slower.
var DefaultTrainingSet = TrainingSet{Synthetic: 48, RealN: []int{1024, 256, 64}}

// Workloads returns the set's workloads, synthetic first.
func (s TrainingSet) Workloads() ([]*workloads.Workload, error) {
	var out []*workloads.Workload
	if s.Synthetic >= 0 {
		grid, err := workloads.SyntheticGrid()
		if err != nil {
			return nil, err
		}
		if s.Synthetic == 0 || s.Synthetic >= len(grid) {
			out = append(out, grid...)
		} else {
			stride := len(grid) / s.Synthetic
			for i := 0; len(out) < s.Synthetic; i += stride {
				out = append(out, grid[i])
			}
		}
	}
	for _, n := range s.RealN {
		for _, wg := range []int{64, 256} {
			ws, err := workloads.RealWorkloads(n, wg)
			if err != nil {
				return nil, err
			}
			out = append(out, ws...)
		}
	}
	return out, nil
}

// Train fits a model to characterizations: the one way every tool,
// example and experiment gets a model from data.
func Train(m *sim.Machine, trainer ml.Trainer, evals []*WorkloadEval) (ml.Model, error) {
	return trainer.Fit(BuildDataset(m, evals))
}

// BootstrapModel is the one way a command-line tool gets its
// DoP-selection model: loaded from file when one is named, otherwise the
// named family (see TrainerByName) trained on DefaultTrainingSet
// characterized on m. The family "none" means no model: it returns nil,
// and the framework decides with the ALL heuristic.
func BootstrapModel(m *sim.Machine, family, file string) (ml.Model, error) {
	if file != "" {
		return ml.LoadModelFile(file)
	}
	if family == "none" {
		return nil, nil
	}
	trainer, err := TrainerByName(family)
	if err != nil {
		return nil, err
	}
	wls, err := DefaultTrainingSet.Workloads()
	if err != nil {
		return nil, err
	}
	evals, err := EvaluateAll(m, wls, 0)
	if err != nil {
		return nil, err
	}
	return Train(m, trainer, evals)
}
