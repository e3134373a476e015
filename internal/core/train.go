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

// EvaluateWorkload profiles a workload once and simulates every DoP
// configuration of the machine with dynamic distribution (timing only; no
// functional execution). It binds views of the input memo's masters, not
// copies: only the buffers the kernel writes are cloned (timingInstance),
// so a characterization whose model the kernel's memo already holds
// copies no input at all.
func EvaluateWorkload(m *sim.Machine, w *workloads.Workload) (*WorkloadEval, error) {
	k, err := w.CompileKernel()
	if err != nil {
		return nil, err
	}
	res, err := analysis.Analyze(k)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", w.Name, err)
	}
	ex, err := sched.NewExecutor(m, k, nil)
	if err != nil {
		return nil, err
	}
	ex.AssumeMalleable = true // Dopia's GPU runs the malleable form: charge its timing
	inst, err := timingInstance(w, res)
	if err != nil {
		return nil, err
	}
	if err := ex.Bind(inst.Args...); err != nil {
		return nil, err
	}
	if err := ex.Launch(inst.ND); err != nil {
		return nil, err
	}
	we := &WorkloadEval{
		Name: w.Name,
		Base: BaseFeatures(res, inst.ND),
	}
	// The 44-config sweep is timing-only and embarrassingly parallel:
	// RunConfigs builds the model once, then fans the simulations out.
	cfgs := m.Configs()
	results, err := ex.RunConfigs(cfgs, sched.RunOptions{Dist: sim.Dynamic})
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", w.Name, err)
	}
	for i, cfg := range cfgs {
		r := results[i]
		we.Times = append(we.Times, ConfigTime{Config: cfg, Time: r.Time})
		if we.BestTime == 0 || r.Time < we.BestTime {
			we.Best, we.BestTime = cfg, r.Time
		}
	}
	return we, nil
}

// timingInstance is w's launch instance for a timing-only run: views of
// the input memo's masters (workloads.Views), less the buffers the kernel
// writes, which it clones. Those are the buffers the sampled profile
// snapshots and restores, so no run through the instance writes a master
// another worker may be reading.
func timingInstance(w *workloads.Workload, res *analysis.Result) (*workloads.Instance, error) {
	inst, err := w.Views()
	if err != nil {
		return nil, err
	}
	for _, i := range res.WrittenArgs() {
		if a := &inst.Args[i]; a.IsBuf {
			a.Buf = a.Buf.Clone()
		}
	}
	return inst, nil
}

// EvaluateAll characterizes a set of workloads in parallel. Workers own
// their executors and the buffers their kernels write; the inputs they
// only read are views of the input memo's masters, which several workers
// may bind at once because nothing writes a master and each view is
// placed in its own executor's address space.
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

// SyntheticSlice returns limit workloads of the synthetic training grid,
// spread evenly over it rather than taken as a prefix so a truncated run
// still covers every pattern family. limit <= 0 (or >= the grid size)
// returns the whole grid.
func SyntheticSlice(limit int) ([]*workloads.Workload, error) {
	grid, err := workloads.SyntheticGrid()
	if err != nil || limit <= 0 || limit >= len(grid) {
		return grid, err
	}
	stride := len(grid) / limit
	sub := make([]*workloads.Workload, 0, limit)
	for i := 0; i < len(grid) && len(sub) < limit; i += stride {
		sub = append(sub, grid[i])
	}
	return sub, nil
}

// BootstrapModel is the one way a command-line tool gets its
// DoP-selection model: loaded from file when one is named, otherwise the
// named family (see TrainerByName) trained on SyntheticSlice(limit)
// characterized on m.
func BootstrapModel(m *sim.Machine, family, file string, limit int) (ml.Model, error) {
	if file != "" {
		return ml.LoadModelFile(file)
	}
	trainer, err := TrainerByName(family)
	if err != nil {
		return nil, err
	}
	slice, err := SyntheticSlice(limit)
	if err != nil {
		return nil, err
	}
	evals, err := EvaluateAll(m, slice, 0)
	if err != nil {
		return nil, err
	}
	return trainer.Fit(BuildDataset(m, evals))
}
