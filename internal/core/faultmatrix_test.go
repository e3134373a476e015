package core

import (
	"path/filepath"
	"testing"
	"time"

	"dopia/internal/faults"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// The fault matrix: for EVERY documented injection point, an interposed
// EnqueueNDRangeKernel on a valid kernel must
//
//  1. return no error,
//  2. produce output buffers bit-identical to the plain path, and
//  3. increment the FallbackStats counter for the degraded rung and
//     attribute the cause to the right pipeline stage,
//
// in both error mode and panic mode. This is the acceptance criterion of
// the fail-open design: no single-stage fault may become an application-
// visible failure.

// matrixCase is one (injection point, plan) cell of the matrix.
type matrixCase struct {
	name string
	// armEarly arms before runLaunch (points only the Dopia path hits,
	// or points hit during framework construction).
	armEarly func()
	// armPreBuild/armPreEnqueue arm inside runLaunch at the matching
	// pipeline moment (see runLaunch).
	armPreBuild   func()
	armPreEnqueue func()
	// mkfw overrides the default framework constructor (model-load case).
	mkfw func(t *testing.T, model ml.Model) func(m *sim.Machine) *Framework
	// check asserts the expected counters.
	check func(t *testing.T, fw, q faults.Snapshot)
}

func wantStage(t *testing.T, snap faults.Snapshot, st faults.Stage, where string) {
	t.Helper()
	if snap.ByStage[st] < 1 {
		t.Errorf("%s: degradation not attributed to %s: %s", where, st, snap)
	}
}

// parseNeverHit is the check of the clc.parse rows: the launch stays
// managed and the armed site was not reached during enqueue.
func parseNeverHit(t *testing.T, fw, q faults.Snapshot) {
	t.Helper()
	if fw.Managed != 1 || q.Managed != 1 || fw.Degradations() != 0 || fw.Panics != 0 {
		t.Errorf("launch with an armed parse site not fully managed: fw=%s q=%s", fw, q)
	}
	if n := faults.HitCount("clc.parse"); n != 0 {
		t.Errorf("enqueue reached clc.parse %d times, want 0", n)
	}
}

func faultMatrixCases() []matrixCase {
	errPlan := func(point string) func() {
		return func() { faults.Inject(point, faults.Plan{}) }
	}
	panicPlan := func(point string) func() {
		return func() { faults.Inject(point, faults.Plan{Panic: "matrix: injected panic at " + point}) }
	}
	cases := []matrixCase{
		{
			// Baseline sanity: no fault anywhere means full management.
			name: "none/managed-baseline",
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Managed != 1 || q.Managed != 1 {
					t.Errorf("clean launch not managed: fw=%s q=%s", fw, q)
				}
				if fw.Degradations() != 0 || q.Degradations() != 0 {
					t.Errorf("clean launch degraded: fw=%s q=%s", fw, q)
				}
			},
		},
		{
			// The original program is built before the plan is armed, and
			// an enqueue parses nothing: the transform hands rung 1 a
			// verdict, not recompiled source. So an armed parse site is
			// never reached and costs the launch nothing.
			name:          "clc.parse/error",
			armPreEnqueue: errPlan("clc.parse"),
			check:         parseNeverHit,
		},
		{
			name:          "clc.parse/panic",
			armPreEnqueue: panicPlan("clc.parse"),
			check:         parseNeverHit,
		},
		{
			// Analysis runs in ProgramBuilt; Count:1 leaves the plain
			// executor's own analysis pass (same entry point) healthy, so
			// the launch lands on the plain rung.
			name:        "analysis.analyze/error",
			armPreBuild: func() { faults.Inject("analysis.analyze", faults.Plan{Count: 1}) },
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Plain != 1 || q.Plain != 1 {
					t.Errorf("analysis fault did not degrade to plain: fw=%s q=%s", fw, q)
				}
				wantStage(t, fw, faults.StageAnalysis, "fw")
				wantStage(t, q, faults.StageAnalysis, "q")
			},
		},
		{
			name: "analysis.analyze/panic",
			armPreBuild: func() {
				faults.Inject("analysis.analyze",
					faults.Plan{Panic: "matrix: analysis panic", Count: 1})
			},
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Plain != 1 {
					t.Errorf("analysis panic did not degrade to plain: %s", fw)
				}
				if fw.Panics < 1 {
					t.Errorf("contained analysis panic not counted: %s", fw)
				}
				wantStage(t, fw, faults.StageAnalysis, "fw")
			},
		},
		{
			// The malleable transform is Dopia-only: arming it always is
			// safe, and its loss costs exactly rung 1.
			name:     "transform.gpu/error",
			armEarly: errPlan("transform.gpu"),
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.CoExecAll != 1 || q.CoExecAll != 1 {
					t.Errorf("transform fault did not degrade to co-exec ALL: fw=%s q=%s", fw, q)
				}
				wantStage(t, fw, faults.StageTransform, "fw")
				wantStage(t, q, faults.StageTransform, "q")
			},
		},
		{
			name:     "transform.gpu/panic",
			armEarly: panicPlan("transform.gpu"),
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.CoExecAll != 1 {
					t.Errorf("transform panic did not degrade to co-exec ALL: %s", fw)
				}
				if fw.Panics < 1 {
					t.Errorf("contained transform panic not counted: %s", fw)
				}
				wantStage(t, fw, faults.StageTransform, "fw")
			},
		},
		{
			// Interpreter compilation backs every rung; Count:2 faults the
			// managed and co-exec attempts and leaves the plain runtime's
			// own compile healthy.
			name:     "interp.compile/error",
			armEarly: func() { faults.Inject("interp.compile", faults.Plan{Count: 2}) },
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Plain != 1 || q.Plain != 1 {
					t.Errorf("compile fault did not degrade to plain: fw=%s q=%s", fw, q)
				}
				wantStage(t, fw, faults.StageCompile, "fw")
			},
		},
		{
			// Lowering backs every launch's bytecode program and nothing
			// falls back to closures: Count:2 fails the managed and co-exec
			// launches at the compile stage and leaves the plain runtime's
			// own lowering healthy.
			name:     "interp.lower/error",
			armEarly: func() { faults.Inject("interp.lower", faults.Plan{Count: 2}) },
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Plain != 1 || q.Plain != 1 {
					t.Errorf("lowering fault did not degrade to plain: fw=%s q=%s", fw, q)
				}
				wantStage(t, fw, faults.StageCompile, "fw")
				wantStage(t, q, faults.StageCompile, "q")
			},
		},
		{
			// A model that cannot be loaded costs nothing but the model:
			// the framework starts with the ALL baseline and the launch is
			// still fully managed.
			name:     "ml.load/error",
			armEarly: errPlan("ml.load"),
			mkfw: func(t *testing.T, model ml.Model) func(m *sim.Machine) *Framework {
				dir := t.TempDir()
				path := filepath.Join(dir, "model.json")
				if err := ml.SaveModelFile(path, model); err != nil {
					t.Fatal(err)
				}
				return func(m *sim.Machine) *Framework {
					fw, err := NewFromModelFile(m, path)
					if err == nil {
						t.Error("injected model-load fault not surfaced by NewFromModelFile")
					}
					if fw == nil {
						t.Fatal("NewFromModelFile failed closed: no framework")
					}
					if fw.Model != nil {
						t.Error("invalid model installed despite load failure")
					}
					return fw
				}
			},
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Managed != 1 {
					t.Errorf("model-less framework did not stay managed: %s", fw)
				}
				if fw.ModelDiscards != 1 {
					t.Errorf("model-load failure not counted as a discard: %s", fw)
				}
				wantStage(t, fw, faults.StageModelLoad, "fw")
			},
		},
		{
			// Inference faults discard the model for the launch; execution
			// proceeds fully managed on the ALL configuration.
			name:     "ml.predict/error",
			armEarly: errPlan("ml.predict"),
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Managed != 1 || q.Managed != 1 {
					t.Errorf("predict fault lost management: fw=%s q=%s", fw, q)
				}
				if fw.ModelDiscards != 1 {
					t.Errorf("discarded prediction not counted: %s", fw)
				}
				wantStage(t, fw, faults.StageModelPredict, "fw")
			},
		},
		{
			name:     "ml.predict/panic",
			armEarly: panicPlan("ml.predict"),
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Managed != 1 {
					t.Errorf("predict panic lost management: %s", fw)
				}
				if fw.ModelDiscards != 1 || fw.Panics < 1 {
					t.Errorf("contained predict panic not counted as discard: %s", fw)
				}
				wantStage(t, fw, faults.StageModelPredict, "fw")
			},
		},
		{
			// Execution faults take out both managed rungs; the plain
			// runtime still completes the launch. An injected timeout is
			// additionally counted as a timeout.
			name:     "core.exec/timeout-error",
			armEarly: func() { faults.Inject("core.exec", faults.Plan{Err: faults.ErrExecTimeout}) },
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Plain != 1 || q.Plain != 1 {
					t.Errorf("exec fault did not degrade to plain: fw=%s q=%s", fw, q)
				}
				if fw.Timeouts < 1 {
					t.Errorf("injected timeout not counted: %s", fw)
				}
				wantStage(t, fw, faults.StageExec, "fw")
				wantStage(t, q, faults.StageExec, "q")
			},
		},
		{
			name:     "core.exec/panic",
			armEarly: panicPlan("core.exec"),
			check: func(t *testing.T, fw, q faults.Snapshot) {
				if fw.Plain != 1 {
					t.Errorf("exec panic did not degrade to plain: %s", fw)
				}
				if fw.Panics < 1 {
					t.Errorf("contained exec panic not counted: %s", fw)
				}
				wantStage(t, fw, faults.StageExec, "fw")
			},
		},
	}
	return cases
}

// TestFaultMatrix drives every matrix cell through a full interposed
// launch of a read-modify-write kernel and compares bits against the
// plain path.
func TestFaultMatrix(t *testing.T) {
	model := testModel(t)
	const n, wg, seed = 256, 64, 42
	// The reference runs before any plan is armed.
	faults.Reset()
	want := plainReference(t, rmwSrc, "rmw", n, wg, seed)

	for _, tc := range faultMatrixCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faults.Reset)
			faults.Reset()
			if tc.armEarly != nil {
				tc.armEarly()
			}
			mkfw := func(m *sim.Machine) *Framework { return New(m, model) }
			if tc.mkfw != nil {
				mkfw = tc.mkfw(t, model)
			}
			res := runLaunch(t, rmwSrc, "rmw", n, wg, seed,
				mkfw, tc.armPreBuild, tc.armPreEnqueue)
			if res.err != nil {
				t.Fatalf("interposed launch failed closed: %v", res.err)
			}
			bitsEqual(t, res.bits, want)
			tc.check(t, res.fw.Stats.Snapshot(), res.q.Fallback.Snapshot())
		})
	}
}

// TestEvaluateWorkloadFaults extends the matrix to the training pipeline:
// for every injection point core.EvaluateWorkload reaches, in error and
// panic mode, it returns an error attributed to the point's stage and
// never panics — nor does EvaluateAll, whose worker goroutines
// (dopia-train, dopia-serve -train) a panic would take the process down
// with.
func TestEvaluateWorkloadFaults(t *testing.T) {
	ws, err := workloads.RealWorkloads(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[8] // GESUMMV
	m := sim.Kaveri()
	for _, tc := range []struct {
		point string
		stage faults.Stage
	}{
		{"clc.parse", faults.StageParse},
		{"analysis.analyze", faults.StageAnalysis},
		{"interp.compile", faults.StageCompile},
		{"interp.lower", faults.StageCompile},
	} {
		for _, mode := range []struct {
			name string
			plan faults.Plan
		}{
			{"error", faults.Plan{}},
			{"panic", faults.Plan{Panic: "matrix: injected panic at " + tc.point}},
		} {
			t.Run(tc.point+"/"+mode.name, func(t *testing.T) {
				t.Cleanup(faults.Reset)
				faults.Reset()
				faults.Inject(tc.point, mode.plan)
				we, err := EvaluateWorkload(m, w)
				if err == nil || we != nil {
					t.Fatalf("EvaluateWorkload = %v, %v; want a classified error", we, err)
				}
				if got := faults.StageOf(err); got != tc.stage {
					t.Errorf("error attributed to stage %q, want %q: %v", got, tc.stage, err)
				}
				if _, err := EvaluateAll(m, []*workloads.Workload{w, w}, 2); err == nil {
					t.Error("EvaluateAll succeeded under an armed fault")
				}
			})
		}
	}
}

// TestWatchdogTimeoutFallsBack wedges both managed rungs with a 1 ns
// watchdog deadline: the launch must still complete bit-identically via
// the plain runtime, with the timeouts visible in the stats.
func TestWatchdogTimeoutFallsBack(t *testing.T) {
	model := testModel(t)
	const n, wg, seed = 256, 64, 7
	faults.Reset()
	want := plainReference(t, rmwSrc, "rmw", n, wg, seed)

	res := runLaunch(t, rmwSrc, "rmw", n, wg, seed,
		func(m *sim.Machine) *Framework {
			fw := New(m, model)
			fw.WatchdogTimeout = time.Nanosecond
			return fw
		}, nil, nil)
	if res.err != nil {
		t.Fatalf("timed-out launch failed closed: %v", res.err)
	}
	bitsEqual(t, res.bits, want)
	snap := res.fw.Stats.Snapshot()
	if snap.Plain != 1 {
		t.Fatalf("timed-out launch did not degrade to plain: %s", snap)
	}
	if snap.Timeouts < 1 {
		t.Fatalf("watchdog timeout not counted: %s", snap)
	}
	wantStage(t, snap, faults.StageExec, "fw")
	if qs := res.q.Fallback.Snapshot(); qs.Plain != 1 || qs.Timeouts < 1 {
		t.Fatalf("per-queue stats missed the timeout fallback: %s", qs)
	}
}

// TestWatchdogDisabled: a negative WatchdogTimeout disables the deadline
// and the launch stays fully managed.
func TestWatchdogDisabled(t *testing.T) {
	model := testModel(t)
	const n, wg, seed = 128, 64, 9
	faults.Reset()
	want := plainReference(t, rmwSrc, "rmw", n, wg, seed)
	res := runLaunch(t, rmwSrc, "rmw", n, wg, seed,
		func(m *sim.Machine) *Framework {
			fw := New(m, model)
			fw.WatchdogTimeout = -1
			return fw
		}, nil, nil)
	if res.err != nil {
		t.Fatal(res.err)
	}
	bitsEqual(t, res.bits, want)
	if snap := res.fw.Stats.Snapshot(); snap.Managed != 1 {
		t.Fatalf("launch with disabled watchdog not managed: %s", snap)
	}
}
