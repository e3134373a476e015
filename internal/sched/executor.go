// Package sched implements Dopia's runtime workload management
// (Algorithm 1 of the paper) on top of the performance simulator: it owns
// the interpreter for one kernel launch, builds the kernel's performance
// model by sampled profiling, and functionally executes exactly the spans
// of work-groups the simulated schedule assigns to each device —
// pull-based single work-groups for CPU cores, push-based chunks for the
// GPU.
//
// A functional run is plan-then-execute. sim.Simulate is a pure timing
// function: it runs first and only records, in simulated-completion
// order, which device acquired which span — the plan. The plan is then
// executed through interp.Exec.RunUnprofiled: every span, CPU or GPU, is
// a segment of the one launched ND range of the original kernel, so every
// work-item sees the launch it belongs to (its group id, the group count,
// the global size and offset) whichever device the schedule gave it. The
// malleable GPU kernel throttles processing elements, which is a timing
// effect: the simulator charges it to GPU chunks (AssumeMalleable), and
// its bytes equal the original's at every throttle setting, a property
// the transform's tests check. When the launch is work-group independent
// (analysis.Independence — no global atomics, every store index provably
// distinct across work-groups, stored buffers loaded only at the store's
// index) the plan is cut into Parallelism shards that run concurrently,
// which is how a managed launch uses every host core even when each
// schedule span is a single work-group; buffers, statistics and traces
// stay bit-identical to the schedule-order walk. Any other launch
// executes the plan in schedule order on one goroutine, and PinReason
// says why. The sampled profile is sharded by the same rule, and a
// functional run keeps the output of one it takes (see Run).
package sched

import (
	"context"
	"errors"
	"fmt"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/sim"
)

// Executor runs one kernel on one simulated machine. It is not safe for
// concurrent use: a bulk caller parallelizes across executors.
type Executor struct {
	Machine *sim.Machine
	// AssumeMalleable charges GPU chunks with the malleable-kernel
	// overhead: Dopia's GPU runs the malleable form. NewExecutor sets it
	// when given a malleable kernel; timing-only sweeps that model Dopia's
	// execution without generating code set it themselves. It changes the
	// simulated timing only: GPU spans run the original kernel either way.
	AssumeMalleable bool
	// Parallelism is interp.Exec.Parallelism for the executor's
	// interpreter: the shard count of functional runs and of the sampled
	// profile (0 = GOMAXPROCS at run time). Results are bit-identical
	// for every value.
	Parallelism int

	orig *clc.Kernel
	ex   *interp.Exec

	args     []interp.Arg
	nd       interp.NDRange
	bound    bool
	launched bool

	model    *sim.KernelModel
	profiled bool
	// kept lists the sampled groups whose output the model's profile
	// kept for the next functional Run to leave out.
	kept []interp.Segment
}

// NewExecutor creates an executor for the original kernel. A non-nil
// malleable (the kernel's malleable GPU form) sets AssumeMalleable and is
// not otherwise used; pass nil to time the unmodified kernel on the GPU
// (the plain OpenCL baseline).
func NewExecutor(m *sim.Machine, orig, malleable *clc.Kernel) (*Executor, error) {
	ex, err := interp.NewExec(orig)
	if err != nil {
		return nil, err
	}
	return &Executor{Machine: m, AssumeMalleable: malleable != nil, orig: orig, ex: ex}, nil
}

// Analysis returns the static analysis of the kernel — the kernel's own
// memoized copy — or nil when the kernel cannot be analyzed, in which
// case Model reports the error. A caller that cannot proceed without the
// analysis asks analysis.Analyze, which returns the classified error.
func (e *Executor) Analysis() *analysis.Result {
	res, _ := analysis.Analyze(e.orig)
	return res
}

// EngineUsed reports the interpreter engine of the current launch.
func (e *Executor) EngineUsed() interp.Engine {
	eng, _ := e.ex.EngineUsed()
	return eng
}

// PinReason reports why the current launch executes its plan in schedule
// order on one goroutine (see interp.Exec.ShardPinned), or "" when the
// launch is work-group independent and the plan is sharded.
func (e *Executor) PinReason() string { return e.ex.ShardPinned() }

// Bind sets the kernel arguments (the original kernel's signature).
func (e *Executor) Bind(args ...interp.Arg) error {
	if err := e.ex.Bind(args...); err != nil {
		return err
	}
	e.args = append([]interp.Arg(nil), args...)
	e.bound = true
	e.invalidate()
	return nil
}

// invalidate drops the model; called whenever the binding or launch
// geometry changes.
func (e *Executor) invalidate() {
	e.model, e.profiled, e.kept = nil, false, nil
}

// Launch sets the ND range for subsequent runs.
func (e *Executor) Launch(nd interp.NDRange) error {
	if err := nd.Validate(); err != nil {
		return err
	}
	e.nd = nd
	e.launched = true
	e.invalidate()
	return nil
}

// ProfileSampleWGs is the default number of work-groups executed to build
// the performance model.
const ProfileSampleWGs = 4

// Model returns the kernel's performance model for the current binding
// and launch. The model is the sampled profile of the launch — built by
// executing ProfileSampleWGs work-groups — and it is memoized on the
// kernel: a launch whose profile key and input bytes equal those of an
// earlier profile of the same kernel (see profileKey) is answered with
// that profile's model, which is what re-profiling would build. A
// profile run Model makes writes private copies of the written buffers,
// so Model never writes a bound buffer, even when a sampled group traps,
// and a caller may bind read-only views of shared storage. The profile
// run is the one run that keeps the interpreter's exact access profile;
// nothing else in production reads interp statistics.
func (e *Executor) Model() (*sim.KernelModel, error) {
	return e.buildModel(false)
}

// ModelForRun is Model for a caller whose next call on the executor is a
// functional Run of this launch, made when the configuration that Run
// executes depends on the model. A profile it takes of a work-group
// independent launch keeps its sampled groups' output, as Run's own
// model build does, and that Run leaves those groups out of its plan, so
// the launch runs each work-group once. Until then the written buffers
// hold the sampled groups' output.
func (e *Executor) ModelForRun() (*sim.KernelModel, error) {
	return e.buildModel(true)
}

// buildModel is Model; with keep set, a profile of an independent launch
// keeps its sampled groups' output and records them in kept (see Run).
func (e *Executor) buildModel(keep bool) (*sim.KernelModel, error) {
	if e.model != nil {
		return e.model, nil
	}
	if !e.bound || !e.launched {
		return nil, fmt.Errorf("sched: executor not bound/launched")
	}
	res, err := analysis.Analyze(e.orig)
	if err != nil {
		return nil, err
	}
	e.ex.Parallelism = e.Parallelism
	if err := e.ex.Launch(e.nd); err != nil {
		return nil, err
	}
	memo, _ := clc.Memo(e.orig, modelKey{}, newProfileMemo)
	key, inputs := e.profileKey(res)
	if p, ok := memo.Get(key); ok && p.sameInputs(inputs) {
		e.model, e.profiled = p.model, false
		return p.model, nil
	}
	p := newProfile(inputs) // before a kept group can write an input
	km, kept, err := e.profile(res, keep && e.ex.ShardPinned() == "")
	if err != nil {
		return nil, err
	}
	if !faults.Active() {
		// A model profiled while a fault was armed may carry it: keep it
		// to this launch.
		p.model = km
		memo.Put(key, p)
	}
	e.model, e.profiled, e.kept = km, true, kept
	return km, nil
}

// Profiled reports whether the current model was built by a sampled
// profile run of this launch; it is false when the model came from the
// kernel's memo, and before Model has run.
func (e *Executor) Profiled() bool { return e.profiled }

// profile runs the sampled profile of the launched interpreter and builds
// its model on private copies of the written buffers, unless keep is set:
// then it writes them in place and returns the groups it ran, or restores
// them if it fails.
func (e *Executor) profile(res *analysis.Result, keep bool) (km *sim.KernelModel, kept []interp.Segment, err error) {
	snap := interp.SnapshotArgs(e.args, res.WrittenArgs())
	if !keep {
		snap.Swap()
		defer snap.Swap()
	}
	defer func() {
		if keep && kept == nil {
			snap.Restore()
		}
	}()
	e.ex.ResetStats()
	sample := e.ex.SampleSegments(ProfileSampleWGs)
	if err := e.ex.RunSegments(sample); err != nil {
		return nil, nil, err
	}
	bufBytes := map[int]int64{}
	for i, a := range e.args {
		if a.IsBuf {
			bufBytes[i] = a.Buf.Bytes()
		}
	}
	if km, err = sim.BuildModel(e.orig.Name, e.ex.Stats(), res, bufBytes, e.nd); err == nil && keep {
		kept = sample
	}
	return km, kept, err
}

// RunOptions configure one simulated+functional execution.
type RunOptions struct {
	Dist     sim.Distribution
	CPUShare float64 // for Static
	// Functional disables/enables the functional execution of spans;
	// timing-only sweeps leave it false.
	Functional bool
	// ExtraStartupSec charges one-time runtime overhead (model inference).
	ExtraStartupSec float64
	// Context, when non-nil, bounds a functional run: the simulated
	// schedule polls it once per span, and the functional execution before
	// every work-group by every shard, so a pathological ND range cannot
	// wedge the host application past the deadline. A deadline hit is
	// classified as faults.ErrExecTimeout.
	Context context.Context
}

// ctxErr translates a context failure into the taxonomy: deadline hits
// become watchdog timeouts, cancellations become execution failures.
func ctxErr(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return faults.Wrap(faults.StageExec,
			fmt.Errorf("%w: %w", faults.ErrExecTimeout, err))
	default:
		return faults.Wrap(faults.StageExec,
			fmt.Errorf("%w: %w", faults.ErrExecFailed, err))
	}
}

// Run executes the kernel under the given DoP configuration, returning
// the simulation result. When opts.Functional is set, the schedule is
// simulated first and every span it assigned is then executed as one
// sharded plan over the launched ND range (see the package comment), so
// buffers hold the kernel's true output afterwards. The plan is run for
// that output: its profile was taken by the model build, so no work-group
// of it runs the access classifier (interp.Exec.RunUnprofiled), and the
// groups a build kept for it (this run's own, or ModelForRun's) are cut
// from it. Panics below this boundary are contained and returned as
// classified errors; an opts.Context deadline aborts the run, sampled
// groups included, with faults.ErrExecTimeout.
func (e *Executor) Run(cfg sim.Config, opts RunOptions) (res *sim.Result, err error) {
	defer faults.Recover(faults.StageExec, &err)
	if ctx := opts.Context; ctx != nil && opts.Functional {
		// Watchdog: every shard polls the context before every
		// work-group through the interpreter's Check hook.
		e.ex.Check = func() error { return ctxErr(ctx) }
		defer func() { e.ex.Check = nil }()
	}
	km, err := e.buildModel(opts.Functional)
	if err != nil {
		return nil, err
	}
	var plan, kept []interp.Segment
	var onSpan sim.SpanFunc
	if opts.Functional {
		kept, e.kept = e.kept, nil
		if err := e.prepareFunctional(); err != nil {
			return nil, err
		}
		var done <-chan struct{}
		if opts.Context != nil {
			done = opts.Context.Done()
		}
		onSpan = func(device string, start, count int) error {
			// The deadline bounds the simulated schedule too: it builds
			// one segment per span, which on a huge ND range takes as
			// long as a run. A receive on Done, fetched once, costs a
			// span less than Err.
			select {
			case <-done:
				return ctxErr(opts.Context)
			default:
			}
			seg, err := segment(device, start, count)
			if err != nil {
				return err
			}
			plan = cut(plan, seg, kept)
			return nil
		}
	}
	res, err = sim.Simulate(e.Machine, km, cfg, opts.Dist, sim.SimOptions{
		CPUShare:        opts.CPUShare,
		OnSpan:          onSpan,
		ExtraStartupSec: opts.ExtraStartupSec,
		PlainGPU:        !e.AssumeMalleable,
	})
	if err == nil && opts.Functional {
		if err = e.ex.RunUnprofiled(plan); err != nil {
			return nil, err
		}
	}
	return res, err
}

// cut appends a span to the plan less the single groups of kept, in
// ascending order; an emptied piece is appended too and runs nothing.
func cut(plan []interp.Segment, s interp.Segment, kept []interp.Segment) []interp.Segment {
	for _, k := range kept {
		if k.Start >= s.Start && k.Start < s.Start+s.Count {
			plan = append(plan, interp.Segment{Start: s.Start, Count: k.Start - s.Start})
			s.Count -= k.Start + 1 - s.Start
			s.Start = k.Start + 1
		}
	}
	return append(plan, s)
}

// RunConfigs runs one simulation per configuration, in configuration
// order on the calling goroutine, and returns the results in that order;
// the first failure wins. A timing-only sweep (the 44-config DoP sweep of
// the training pipeline, the learner's oracle row) builds the model once
// and then only simulates, a few microseconds per configuration, so a
// bulk caller parallelizes across sweeps (core.EvaluateAll) rather than
// within one.
func (e *Executor) RunConfigs(cfgs []sim.Config, opts RunOptions) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := e.Run(cfg, opts)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}

// prepareFunctional launches the interpreter for the full ND range.
func (e *Executor) prepareFunctional() error {
	e.ex.Parallelism = e.Parallelism
	return e.ex.Launch(e.nd)
}

// segment turns one span of the simulated schedule into a plan segment:
// count work-groups of the launched ND range starting at start, whether
// the span is a CPU core's work-group or one of the GPU's push-based
// chunks.
func segment(device string, start, count int) (interp.Segment, error) {
	if device != "cpu" && device != "gpu" {
		return interp.Segment{}, fmt.Errorf("sched: unknown device %q", device)
	}
	return interp.Segment{Start: start, Count: count}, nil
}

// BestStatic sweeps the paper's 19 static splits (5%..95% to the CPU) and
// returns the best share and its result (the Figure 9 "STATIC" baseline).
// The splits are timing-only and simulated in share order, the lowest
// share winning ties.
func (e *Executor) BestStatic(cfg sim.Config) (float64, *sim.Result, error) {
	var bestShare float64
	var best *sim.Result
	for i := 1; i <= 19; i++ {
		share := float64(i) * 0.05
		r, err := e.Run(cfg, RunOptions{Dist: sim.Static, CPUShare: share})
		if err != nil {
			return 0, nil, err
		}
		if best == nil || r.Time < best.Time {
			best, bestShare = r, share
		}
	}
	return bestShare, best, nil
}
