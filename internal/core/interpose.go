package core

import (
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ocl"
	"dopia/internal/transform"
)

// interposer adapts a Framework to the ocl.Interposer interface, so that
// attaching Dopia to an OpenCL context transparently reroutes program
// builds and kernel launches through the framework — the library-
// interpositioning deployment described in §4 of the paper.
//
// The interposer FAILS OPEN. A production application must never fail or
// hang because Dopia stumbled, so every launch degrades down a ladder:
//
//	rung 1: full Dopia — co-execution timed as the malleable form (the
//	        kernel passes transform.Check) + model DoP selection
//	rung 2: ALL co-execution of the original kernel (no malleable
//	        timing, no model)
//	rung 3: the plain single-device runtime (handled=false)
//
// Panics from any pipeline stage are contained, watchdog timeouts abort
// wedged executions, invalid model predictions discard the model for the
// launch, and every degradation is recorded in the framework's and the
// queue's FallbackStats. Enqueue never returns an error for a kernel the
// plain runtime can run.
type interposer struct {
	fw *Framework
}

// Attach installs the framework as the context's interposer.
func (f *Framework) Attach(ctx *ocl.Context) {
	ctx.SetInterposer(&interposer{fw: f})
}

// ProgramBuilt runs Dopia's compile-time stage, failing open: a kernel
// whose analysis fails is recorded and will fall back at enqueue time,
// but the program build itself never fails because of Dopia.
func (ip *interposer) ProgramBuilt(prog *ocl.Program) (err error) {
	defer faults.Recover(faults.StageAnalysis, &err)
	defer func() {
		if err != nil {
			// AnalyzeProgram recorded the failing kernel as unmanaged; it
			// re-surfaces as a plain fallback at enqueue. The build proceeds.
			err = nil
		}
	}()
	return ip.fw.AnalyzeProgram(prog.Compiled())
}

// LaunchInfo describes how the latest interposed launch on a queue was
// served. The interposer stores one in ocl.CommandQueue.LastLaunch so
// callers that only see the OpenCL surface (the dopia-serve daemon) can
// report the ladder rung, DoP decision, and engine per launch without
// diffing counters.
type LaunchInfo struct {
	// Rung is the fallback-ladder rung that served the launch:
	// "managed", "coexec-all", or "plain".
	Rung string
	// Decision is the DoP selection (nil on the plain rung, which
	// executes after the interposer returns).
	Decision *Decision
	// Engine is the interpreter engine of the CPU-side functional
	// execution ("" on the plain rung).
	Engine string
	// Profiled reports that the launch ran a sampled profile; false on a
	// managed rung means its model came from the kernel's memo (see
	// Execution.Profiled), and on the plain rung that there was no model.
	Profiled bool
	// Cause is the classified error that forced the degradation (nil
	// for managed launches).
	Cause error
}

// recorder fans fallback accounting out to the per-framework and the
// per-queue counters.
type recorder struct {
	sinks [2]*faults.FallbackStats
}

func (r recorder) managed() {
	for _, s := range r.sinks {
		s.RecordManaged()
	}
}

func (r recorder) coExecAll(cause error) {
	for _, s := range r.sinks {
		s.RecordCoExecAll(cause)
	}
}

func (r recorder) plain(cause error) {
	for _, s := range r.sinks {
		s.RecordPlain(cause)
	}
}

// Enqueue takes over a kernel launch: DoP selection plus dynamic
// co-execution, degrading down the fallback ladder on any failure. It
// returns handled=false — never an error — when the launch should be
// (re-)executed by the plain runtime.
func (ip *interposer) Enqueue(q *ocl.CommandQueue, k *ocl.Kernel, nd interp.NDRange) (handled bool, simTime float64, err error) {
	rec := recorder{sinks: [2]*faults.FallbackStats{ip.fw.Stats, q.Fallback}}
	// Absolute backstop: a panic anywhere below becomes a plain fallback.
	defer func() {
		if r := recover(); r != nil {
			perr := &faults.PanicError{Stage: faults.StageUnknown, Value: r}
			rec.plain(perr)
			q.LastLaunch = &LaunchInfo{Rung: "plain", Cause: perr}
			handled, simTime, err = false, 0, nil
		}
	}()
	// ctx bounds the whole ladder: a request deadline wired onto the
	// queue aborts whichever rung is executing and also stops the ladder
	// from retrying rungs that can only time out again.
	ctx := q.ExecContext()

	args, aerr := k.Args()
	if aerr != nil {
		// Unbound arguments fail identically on the plain path; let it
		// produce the canonical error.
		return false, 0, nil
	}

	// The ladder needs the static analysis for rung 1 and for snapshot
	// precision; without it, degrade straight to the plain runtime.
	res, kerr := ip.fw.Analysis(k.Compiled())
	if kerr != nil {
		rec.plain(kerr)
		return false, 0, nil
	}

	// The written buffers a re-execution reads back, so a partially
	// executed rung can be rolled back before the next rung re-runs the
	// launch; the next rung rewrites the store-only ones.
	snap := interp.SnapshotArgs(args, interp.ReadBack(args, res.WrittenArgs(), res.LoadedArgs()))

	// Rung 1: full Dopia management.
	cause := transform.Check(k.Compiled(), nd.Dims)
	if cause == nil {
		exec, xerr := ip.fw.coExecute(ctx, k.Compiled(), res, true, args, nd)
		if xerr == nil {
			rec.managed()
			q.LastResult = exec.Result
			q.LastLaunch = &LaunchInfo{Rung: "managed", Decision: &exec.Decision, Engine: exec.Engine, Profiled: exec.Profiled}
			return true, exec.Result.Time, nil
		}
		snap.Restore()
		cause = xerr
	}

	// A dead request context means every further rung can only fail the
	// same way; skip straight to the plain runtime, which will surface
	// the canonical timeout/cancellation error.
	if ctx.Err() == nil {
		// Rung 2: ALL co-execution without malleable timing.
		exec, xerr := ip.fw.coExecute(ctx, k.Compiled(), nil, false, args, nd)
		if xerr == nil {
			rec.coExecAll(cause)
			q.LastResult = exec.Result
			q.LastLaunch = &LaunchInfo{Rung: "coexec-all", Decision: &exec.Decision, Engine: exec.Engine, Profiled: exec.Profiled, Cause: cause}
			return true, exec.Result.Time, nil
		}
		snap.Restore()
		cause = xerr
	}

	// Rung 3: the plain single-device runtime.
	rec.plain(cause)
	q.LastLaunch = &LaunchInfo{Rung: "plain", Cause: cause}
	return false, 0, nil
}
