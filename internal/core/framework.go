package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/transform"
)

// DefaultWatchdogTimeout bounds one managed kernel execution. A launch
// that exceeds it is aborted, classified as faults.ErrExecTimeout, and
// degraded down the fallback ladder instead of wedging the host app.
const DefaultWatchdogTimeout = 30 * time.Second

// Framework is a Dopia instance for one machine: it drives enqueue-time
// configuration selection and dynamic co-execution. The compile-time
// artifacts it works from (static analysis, malleable code) are owned by
// the kernels themselves (clc.Memo), so every framework, session and
// tenant launching one kernel shares them and they die with the kernel.
//
// A Framework is safe for concurrent use: one framework can serve
// launches from many sessions and worker goroutines at once (the
// dopia-serve deployment). Mutating Model, Learner or WatchdogTimeout
// concurrently with launches is not supported; configure the framework
// before attaching it.
type Framework struct {
	Machine *sim.Machine
	// Model predicts normalized performance from Table 1 features. When
	// nil, Decide falls back to using all resources (the ALL baseline).
	Model ml.Model
	// Stats counts, per framework, how interposed launches moved through
	// the fail-open fallback ladder.
	Stats *faults.FallbackStats
	// WatchdogTimeout bounds each managed execution (wall clock). Zero
	// selects DefaultWatchdogTimeout; negative disables the watchdog.
	WatchdogTimeout time.Duration
	// Dist selects the co-execution scheduling policy for managed
	// launches. The zero value is sim.Dynamic — the paper's Algorithm 1.
	// The EngineCL-style alternatives (sim.Static via BestStatic,
	// sim.WorkQueue, sim.HGuided) re-split the ND-range mid-flight; all
	// policies execute identical work, so the choice never changes bytes.
	Dist sim.Distribution
	// Learner is the online-learning loop (nil = Model only): it may
	// answer a tenant's managed launch from what it has measured, and it
	// learns from every tenant's managed launch once it has run.
	Learner *Learner

	// unmanaged records the kernels whose compile-time stage failed in
	// AnalyzeProgram, with the classified error: the framework's own
	// verdict that their launches take the plain rung. It is not a copy
	// of the kernel's memo — it also holds for a failure the memo never
	// stores (one injected while faults were armed).
	unmanaged sync.Map // *clc.Kernel -> error
}

// PredCacheStats reports zeros: there is no prediction cache. It stays
// only because benchmark/, frozen outside benchmark PRs, calls it.
func (f *Framework) PredCacheStats() (hits, misses int64) { return 0, 0 }

// New creates a framework for a machine with a trained model (may be nil).
func New(m *sim.Machine, model ml.Model) *Framework {
	return &Framework{
		Machine: m,
		Model:   model,
		Stats:   &faults.FallbackStats{},
	}
}

// NewFromModelFile creates a framework whose model is loaded from a file,
// failing open: if the model cannot be loaded or fails validation, the
// framework starts with a nil model (the ALL baseline), the failure is
// recorded in Stats, and the load error is returned for observability.
// The returned framework is always usable.
func NewFromModelFile(m *sim.Machine, path string) (*Framework, error) {
	f := New(m, nil)
	model, err := ml.LoadModelFile(path)
	if err != nil {
		err = faults.Wrap(faults.StageModelLoad,
			fmt.Errorf("%w: %w", faults.ErrModelInvalid, err))
		f.Stats.RecordModelDiscard(err)
		return f, err
	}
	f.Model = model
	return f, nil
}

// watchdog returns a context bounding one managed execution: the
// framework's WatchdogTimeout layered under the caller's context, so a
// per-request deadline (dopia-serve wires one through the command
// queue) and the watchdog compose — whichever expires first aborts the
// run.
func (f *Framework) watchdog(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	d := f.WatchdogTimeout
	if d == 0 {
		d = DefaultWatchdogTimeout
	}
	if d < 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// AnalyzeProgram performs Dopia's compile-time stage on every kernel of a
// program: static feature extraction. Malleable code is generated lazily
// per (kernel, work-dim) at first launch, since the rewrite depends on the
// launch dimensionality. A kernel that fails here stays unmanaged.
func (f *Framework) AnalyzeProgram(prog *clc.Program) error {
	for _, k := range prog.Kernels {
		if _, err := f.Analysis(k); err != nil {
			f.unmanaged.Store(k, err)
			return err
		}
	}
	return nil
}

// Analysis returns the static analysis of a kernel.
func (f *Framework) Analysis(k *clc.Kernel) (*analysis.Result, error) {
	if err, ok := f.unmanaged.Load(k); ok {
		return nil, err.(error)
	}
	res, err := analysis.Analyze(k)
	if err != nil {
		return nil, faults.Wrap(faults.StageAnalysis,
			fmt.Errorf("core: analysis of %s: %w", k.Name, err))
	}
	return res, nil
}

// Malleable returns the malleable GPU form of a kernel for a launch
// dimensionality.
func (f *Framework) Malleable(k *clc.Kernel, workDim int) (*transform.GPUResult, error) {
	return transform.MalleableGPU(k, workDim)
}

// Decision is the outcome of Dopia's configuration selection.
type Decision struct {
	Config sim.Config
	// Predicted is the model's normalized-performance estimate for the
	// chosen configuration (1 for a Learned answer, the oracle best).
	Predicted float64
	// InferTime is the wall-clock cost of the decision: the model over
	// all configurations plus, on a managed launch, the Learner's answer.
	// It is charged to the simulated clock.
	InferTime time.Duration
	// Evaluated is the number of configurations scored.
	Evaluated int
	// ModelDiscarded reports that the model's predictions were rejected
	// for this launch (NaN/Inf/out-of-range values, inference panic, or
	// injected fault) and the ALL configuration was used instead.
	ModelDiscarded bool
	// Learned reports that the Learner replaced the model's argmax with
	// the measured oracle argmax of a signature the tenant launched
	// before.
	Learned bool
	// Explored reports that the online exploration policy overrode the
	// exploited configuration for this launch.
	Explored bool
	// Sched names the co-execution scheduling policy that drove the
	// launch ("alg1", "static", "dynamic", or "hguided").
	Sched string
}

// maxSanePrediction bounds the magnitude of a credible normalized-
// performance prediction; anything beyond it marks a corrupted model.
const maxSanePrediction = 1e6

// predictOne evaluates the model on one feature vector, containing
// panics and validating the output. A non-nil error means the model must
// be discarded for this launch.
func predictOne(m ml.Model, x ml.Features) (v float64, err error) {
	defer faults.Recover(faults.StageModelPredict, &err)
	if err := faults.Hit("ml.predict"); err != nil {
		return 0, faults.Wrap(faults.StageModelPredict, err)
	}
	v = m.Predict(x)
	if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > maxSanePrediction {
		return 0, faults.Wrap(faults.StageModelPredict, fmt.Errorf(
			"%w: prediction %v out of range", faults.ErrModelInvalid, v))
	}
	return v, nil
}

// Decide evaluates the model for every DoP configuration of the machine
// and returns the predicted-best one (paper Algorithm 1, lines 2-4). It is
// the model-only argmax: the Learner is consulted by managed launches
// (ExecuteCtx), never here. Invalid predictions (NaN/Inf/out-of-range) or
// inference panics discard the model for this launch: the decision
// degrades to the ALL configuration with ModelDiscarded set, and Decide
// never fails.
func (f *Framework) Decide(res *analysis.Result, nd interp.NDRange) Decision {
	dec, _ := f.decide(res, nd)
	return dec
}

// decide is Decide plus the cause of a model discard (nil when the model
// was used or absent).
func (f *Framework) decide(res *analysis.Result, nd interp.NDRange) (Decision, error) {
	if f.Model == nil {
		return Decision{Config: f.Machine.AllResources()}, nil
	}
	base := BaseFeatures(res, nd)
	start := time.Now()
	var best sim.Config
	bestV := 0.0
	n := 0
	for _, cfg := range f.Machine.Configs() {
		v, err := predictOne(f.Model, WithConfig(base, f.Machine, cfg))
		if err != nil {
			// Model invalid: discard it for this launch and fall back to
			// all resources (the paper's ALL baseline).
			return Decision{
				Config:         f.Machine.AllResources(),
				InferTime:      time.Since(start),
				Evaluated:      n,
				ModelDiscarded: true,
			}, err
		}
		n++
		if n == 1 || v > bestV {
			best, bestV = cfg, v
		}
	}
	return Decision{
		Config:    best,
		Predicted: bestV,
		InferTime: time.Since(start),
		Evaluated: n,
	}, nil
}

// Execution is the result of one Dopia-managed kernel execution.
type Execution struct {
	Decision Decision
	Result   *sim.Result
	// Kernel/launch identification for reporting.
	KernelName string
	// Engine names the interpreter engine the CPU-side functional
	// execution used ("bytecode" or "closures", with the per-kernel
	// fallback reason appended when the bytecode engine declined).
	Engine string
	// Profiled reports that the launch ran the sampled profile behind its
	// model; false means the model came from the kernel's memo of an
	// identical earlier launch (sched.Executor.Profiled).
	Profiled bool
}

// Execute runs one kernel launch under Dopia management: select the DoP
// with the model, then co-execute with dynamic workload distribution. The
// kernel's output buffers hold the true results afterwards, and the
// returned simulated time includes the model-inference overhead.
//
// Execute is the top rung of the fallback ladder: a discarded model
// degrades to the ALL configuration within it (recorded in Stats), while
// harder failures — including contained panics and watchdog timeouts —
// return classified errors for the ladder in interpose.go to act on.
func (f *Framework) Execute(k *clc.Kernel, args []interp.Arg, nd interp.NDRange) (*Execution, error) {
	return f.ExecuteCtx(context.Background(), k, args, nd)
}

// ExecuteCtx is Execute bounded by a caller context: the watchdog runs
// under ctx, so a request deadline or cancellation aborts the managed
// execution within one work-group quantum and is classified as a
// timeout / execution failure.
func (f *Framework) ExecuteCtx(ctx context.Context, k *clc.Kernel, args []interp.Arg, nd interp.NDRange) (*Execution, error) {
	res, err := f.Analysis(k)
	if err != nil {
		return nil, err
	}
	mall, err := f.Malleable(k, nd.Dims)
	if err != nil {
		return nil, err
	}
	return f.coExecute(ctx, k, res, mall.Kernel, args, nd)
}

// coExecute is the body of both managed rungs. With a malleable kernel
// it is rung 1: the model (and, for a tenant's launch, the Learner when
// set) picks the DoP from the kernel's analysis res. With malleable ==
// nil it is rung 2: the original kernel on ALL resources, no model, no
// decision.
func (f *Framework) coExecute(ctx context.Context, k *clc.Kernel, res *analysis.Result, malleable *clc.Kernel, args []interp.Arg, nd interp.NDRange) (exec *Execution, err error) {
	defer faults.Recover(faults.StageExec, &err)
	if err := faults.Hit("core.exec"); err != nil {
		return nil, faults.Wrap(faults.StageExec, err)
	}
	ex, err := sched.NewExecutor(f.Machine, k, malleable)
	if err != nil {
		return nil, err
	}
	if err := ex.Bind(args...); err != nil {
		return nil, err
	}
	if err := ex.Launch(nd); err != nil {
		return nil, err
	}
	dec := Decision{Config: f.Machine.AllResources()}
	var km *sim.KernelModel
	lrn, tenant := f.Learner, TenantFrom(ctx)
	if tenant == "" {
		lrn = nil // an untagged launch has no tenant whose state could ever be forgotten
	}
	if malleable == nil {
		lrn = nil // rung 2 makes no decision to advise or learn from
	} else {
		var decErr error
		dec, decErr = f.decide(res, nd)
		if decErr != nil {
			f.Stats.RecordModelDiscard(decErr)
		}
		if lrn != nil {
			// The learner keys on the launch's kernel model, which the run
			// below needs anyway: build it first, outside the decision's
			// cost.
			if km, err = ex.Model(); err != nil {
				return nil, faults.Wrap(faults.StageExec, err)
			}
			if !dec.ModelDiscarded {
				// The advice changes only which DoP executes — functional
				// results are configuration-invariant, so it can never
				// change bytes. Its cost is part of the decision's.
				start, inferTime := time.Now(), dec.InferTime
				dec = lrn.advise(tenant, km, dec)
				dec.InferTime = inferTime + time.Since(start)
			}
		}
	}
	dec.Sched = f.Dist.String()
	wctx, cancel := f.watchdog(ctx)
	defer cancel()
	result, err := ex.Run(dec.Config, sched.RunOptions{
		Dist:            f.Dist,
		Functional:      true,
		ExtraStartupSec: dec.InferTime.Seconds(),
		Context:         wctx,
	})
	if err != nil {
		return nil, faults.Wrap(faults.StageExec, err)
	}
	if lrn != nil && !faults.Active() {
		// Learn from the completed launch before returning it, so the
		// tenant's next launch sees it. A memo miss re-simulates every
		// configuration on this executor's kernel model, timing only; the
		// sweep is not part of the decision's cost.
		lrn.observe(tenant, km, func() ([]*sim.Result, error) {
			return ex.RunConfigs(f.Machine.Configs(), sched.RunOptions{Dist: f.Dist})
		})
	}
	return &Execution{
		Decision:   dec,
		Result:     result,
		KernelName: k.Name,
		Engine:     engineString(ex),
		Profiled:   ex.Profiled(),
	}, nil
}

// engineString renders the interpreter engine of an executor's current
// launch, and why the plan ran in schedule order on one goroutine if the
// launch is not work-group independent.
func engineString(ex *sched.Executor) string {
	s := ex.EngineUsed().String()
	if pin := ex.PinReason(); pin != "" {
		s += " (in order: " + pin + ")"
	}
	return s
}
