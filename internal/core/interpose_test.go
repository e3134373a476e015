package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/ocl"
	"dopia/internal/sim"
)

const gesummvOCL = `
__kernel void gesummv(__global float* A, __global float* B,
                      __global float* x, __global float* y,
                      float alpha, float beta, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float tmp = 0.0f;
        float yv = 0.0f;
        for (int j = 0; j < N; j++) {
            tmp += A[i * N + j] * x[j];
            yv += B[i * N + j] * x[j];
        }
        y[i] = alpha * tmp + beta * yv;
    }
}`

// TestInterposedEnqueue runs a full application flow: build a program in
// the OpenCL runtime with Dopia attached, enqueue a kernel, and verify
// both the functional result and that Dopia managed the launch.
func TestInterposedEnqueue(t *testing.T) {
	m := sim.Kaveri()
	p := ocl.NewPlatform(m)
	ctx := p.CreateContext()

	// Train a tiny model so the decision path is exercised.
	grid := smallGrid(t)[:6]
	evals, err := EvaluateAll(m, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(m, ml.TreeTrainer{}, evals)
	if err != nil {
		t.Fatal(err)
	}
	fw := New(m, model)
	fw.Attach(ctx)

	prog := ctx.CreateProgramWithSource(gesummvOCL)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	kern, err := prog.CreateKernel("gesummv")
	if err != nil {
		t.Fatal(err)
	}

	n := 256
	A := ctx.CreateFloatBuffer(n * n)
	B := ctx.CreateFloatBuffer(n * n)
	x := ctx.CreateFloatBuffer(n)
	y := ctx.CreateFloatBuffer(n)
	for i := 0; i < n*n; i++ {
		A.Float32()[i] = float32(i%5) * 0.25
		B.Float32()[i] = float32(i%3) * 0.5
	}
	for i := 0; i < n; i++ {
		x.Float32()[i] = float32(i%7) - 3
	}
	alpha, beta := float32(1.5), float32(0.5)
	for i, v := range []any{A, B, x, y, alpha, beta, n} {
		if err := kern.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	q := ctx.CreateCommandQueue(p.Device(ocl.DeviceCPU))
	if err := q.EnqueueNDRangeKernel(kern, interp.ND1(n, 64)); err != nil {
		t.Fatal(err)
	}

	// Dopia handled the launch: co-execution statistics present.
	if q.LastResult == nil || q.SimTime <= 0 {
		t.Fatal("launch not accounted")
	}
	if q.LastResult.WGsCPU+q.LastResult.WGsGPU != n/64 {
		t.Errorf("work-groups executed: %d+%d, want %d",
			q.LastResult.WGsCPU, q.LastResult.WGsGPU, n/64)
	}

	// Functional correctness against a host-side reference.
	for i := 0; i < n; i++ {
		var tmp, yv float32
		for j := 0; j < n; j++ {
			tmp += A.Float32()[i*n+j] * x.Float32()[j]
			yv += B.Float32()[i*n+j] * x.Float32()[j]
		}
		want := alpha*tmp + beta*yv
		got := y.Float32()[i]
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-2 {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

// earlyExitSrc returns from inside a loop, which the malleable rewrite
// cannot express (its continue would bind to the user loop).
const earlyExitSrc = `
__kernel void earlyexit(__global float* a, __global float* b, int n) {
    int i = get_global_id(0);
    for (int j = 0; j < 4; j++) {
        if (a[(i + j) % n] > 1.0f) return;
        b[i] = b[i] + a[(i + j) % n];
    }
}`

// TestReturnInLoopDegradesAsTransform checks that the transform's
// return-in-loop rejection reaches the ladder classified: the launch
// co-executes on ALL, attributed to the transform stage as an
// unsupported kernel, with the plain path's bytes.
func TestReturnInLoopDegradesAsTransform(t *testing.T) {
	model := testModel(t)
	const n, wg, seed = 256, 64, 7
	want := plainReference(t, earlyExitSrc, "earlyexit", n, wg, seed)
	res := runLaunch(t, earlyExitSrc, "earlyexit", n, wg, seed,
		func(m *sim.Machine) *Framework { return New(m, model) }, nil, nil)
	if res.err != nil {
		t.Fatalf("interposed launch failed closed: %v", res.err)
	}
	bitsEqual(t, res.bits, want)
	for _, snap := range []faults.Snapshot{res.fw.Stats.Snapshot(), res.q.Fallback.Snapshot()} {
		if snap.CoExecAll != 1 || snap.ByStage[faults.StageTransform] != 1 {
			t.Errorf("want one coexec-all fallback attributed to transform: %s", snap)
		}
	}
	info := res.q.LastLaunch.(*LaunchInfo)
	if info.Rung != "coexec-all" || !errors.Is(info.Cause, faults.ErrUnsupportedKernel) {
		t.Errorf("rung %q, cause %v: want coexec-all for an unsupported kernel", info.Rung, info.Cause)
	}
}

// outputOnlySrc stores to b and never loads it.
const outputOnlySrc = `
__kernel void scale(__global float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        b[i] = a[i] * 2.0f + 1.0f;
    }
}`

// partialRuns numbers the sources TestRollbackOnlyWhatIsReadBack compiles.
var partialRuns atomic.Int64

// TestRollbackOnlyWhatIsReadBack: rung 1 fails after writing part of b.
// The ladder snapshots b only when the kernel loads it (rmw), and either
// way the launch ends with a clean plain run's bytes: an output-only b
// (scale) is rewritten whole by the plain runtime, a loaded one is rolled
// back first. A learner makes rung 1 build its model first, keeping the
// sampled groups' output in b, and a 1 ns watchdog then fails its run and
// rung 2's before either runs a group. Each launch compiles its own copy
// of the source, so no model memo of a shared kernel spares rung 1 its
// profile.
func TestRollbackOnlyWhatIsReadBack(t *testing.T) {
	const n, wg, sentinel = 1024, 64, -7
	for _, c := range []struct {
		src, kname string
		loadsB     bool
	}{
		{outputOnlySrc, "scale", false},
		{rmwSrc, "rmw", true},
	} {
		t.Run(c.kname, func(t *testing.T) {
			// launch builds a copy of the source of its own in a context
			// with fw attached (nil for none), fills a from a fixed seed
			// and b with the sentinel, and returns the kernel, a queue
			// and b.
			launch := func(fw *Framework) (*ocl.Kernel, *ocl.CommandQueue, *ocl.Buffer) {
				src := fmt.Sprintf("%s\n// run %d\n", c.src, partialRuns.Add(1))
				m := sim.Kaveri()
				p := ocl.NewPlatform(m)
				cl := p.CreateContext()
				if fw != nil {
					fw.Attach(cl)
				}
				prog := cl.CreateProgramWithSource(src)
				if err := prog.Build(); err != nil {
					t.Fatal(err)
				}
				kern, err := prog.CreateKernel(c.kname)
				if err != nil {
					t.Fatal(err)
				}
				a, b := cl.CreateFloatBuffer(n), cl.CreateFloatBuffer(n)
				rng := rand.New(rand.NewSource(3))
				for i := range n {
					a.Float32()[i], b.Float32()[i] = rng.Float32()*4-2, sentinel
				}
				for i, v := range []any{a, b, n} {
					if err := kern.SetArg(i, v); err != nil {
						t.Fatal(err)
					}
				}
				return kern, cl.CreateCommandQueue(p.Device(ocl.DeviceCPU)), b
			}
			kern, q, b := launch(nil)
			if err := q.EnqueueNDRangeKernel(kern, interp.ND1(n, wg)); err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(b.Float32())

			m := sim.Kaveri()
			fw := New(m, testModel(t))
			fw.Learner = NewLearner(m)
			fw.WatchdogTimeout = time.Nanosecond
			ctx := WithTenant(context.Background(), "t")
			kern, q, b = launch(fw)
			args, err := kern.Args()
			if err != nil {
				t.Fatal(err)
			}
			res, err := fw.Analysis(kern.Compiled())
			if err != nil {
				t.Fatal(err)
			}
			if slots := interp.ReadBack(args, res.WrittenArgs(), res.LoadedArgs()); slices.Contains(slots, 1) != c.loadsB {
				t.Errorf("the ladder snapshots slots %v: want b (slot 1) among them %v", slots, c.loadsB)
			}
			// Rung 1 on its own: it fails, and b holds part of the output.
			if _, err := fw.coExecute(ctx, kern.Compiled(), res, true, args, interp.ND1(n, wg)); !faults.IsTimeout(err) {
				t.Fatalf("rung 1 returned %v, want a watchdog timeout", err)
			}
			if !slices.Contains(b.Float32(), sentinel) || !slices.ContainsFunc(b.Float32(), func(v float32) bool { return v != sentinel }) {
				t.Fatal("rung 1 left b fully written or untouched, want part of it written")
			}

			kern, q, b = launch(fw)
			q.SetExecContext(ctx)
			if err := q.EnqueueNDRangeKernel(kern, interp.ND1(n, wg)); err != nil {
				t.Fatal(err)
			}
			if info := q.LastLaunch.(*LaunchInfo); info.Rung != "plain" {
				t.Fatalf("launch ran on rung %q, want plain after both managed rungs timed out", info.Rung)
			}
			for i, v := range b.Float32() {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("b[%d] = %v, want %v", i, v, want[i])
				}
			}
		})
	}
}
