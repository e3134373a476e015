package core

import (
	"errors"
	"testing"

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
