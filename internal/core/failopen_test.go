package core

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/ocl"
	"dopia/internal/sim"
)

// The test kernels share the signature (float* a, float* b, int n) and
// read-modify-write b, so a partially executed rung that was rolled
// back incorrectly would corrupt the output bits.

// rmwSrc is a plain malleable-friendly kernel.
const rmwSrc = `
__kernel void rmw(__global float* a, __global float* b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        for (int j = 0; j < 8; j++) {
            acc += a[(i + j) % n] * 0.25f;
        }
        b[i] = b[i] * 0.5f + acc;
    }
}`

// barrierSrc uses a top-level barrier with local memory: the malleable
// transform rejects it (nested barrier inside the worklist loop), so the
// interposed path must fall back — and still match the plain path bit
// for bit.
const barrierSrc = `
__kernel void revtile(__global float* a, __global float* b, int n) {
    __local float tile[64];
    int l = get_local_id(0);
    int i = get_global_id(0);
    tile[l] = a[i] * 1.5f;
    barrier(CLK_LOCAL_MEM_FENCE);
    b[i] = b[i] + tile[63 - l];
}`

// trainedModel caches one small trained model for all fail-open tests.
var (
	trainedOnce  sync.Once
	trainedMdl   ml.Model
	trainedError error
)

func testModel(t *testing.T) ml.Model {
	t.Helper()
	trainedOnce.Do(func() {
		m := sim.Kaveri()
		grid := smallGrid(t)[:6]
		evals, err := EvaluateAll(m, grid, 0)
		if err != nil {
			trainedError = err
			return
		}
		trainedMdl, trainedError = Train(m, ml.TreeTrainer{}, evals)
	})
	if trainedError != nil {
		t.Fatal(trainedError)
	}
	return trainedMdl
}

// launchResult is one end-to-end launch through the OpenCL runtime.
type launchResult struct {
	bits []uint32
	q    *ocl.CommandQueue
	fw   *Framework
	kern *clc.Kernel
	err  error
}

// runLaunch executes kernel kname of src on fresh buffers seeded from
// seed. With mkfw non-nil the framework it returns is attached as the
// interposer. armPreBuild/armPreEnqueue arm fault injection around the
// build, mirroring when each pipeline stage actually runs.
func runLaunch(t *testing.T, src, kname string, n, wg int, seed int64,
	mkfw func(m *sim.Machine) *Framework, armPreBuild, armPreEnqueue func()) launchResult {
	t.Helper()
	m := sim.Kaveri()
	p := ocl.NewPlatform(m)
	ctx := p.CreateContext()
	var fw *Framework
	if mkfw != nil {
		fw = mkfw(m)
		fw.Attach(ctx)
	}
	if armPreBuild != nil {
		armPreBuild()
	}
	prog := ctx.CreateProgramWithSource(src)
	if err := prog.Build(); err != nil {
		t.Fatalf("build: %v", err)
	}
	kern, err := prog.CreateKernel(kname)
	if err != nil {
		t.Fatal(err)
	}
	a := ctx.CreateFloatBuffer(n)
	b := ctx.CreateFloatBuffer(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a.Float32()[i] = rng.Float32()*4 - 2
		b.Float32()[i] = rng.Float32()
	}
	for i, v := range []any{a, b, n} {
		if err := kern.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if armPreEnqueue != nil {
		armPreEnqueue()
	}
	q := ctx.CreateCommandQueue(p.Device(ocl.DeviceCPU))
	lerr := q.EnqueueNDRangeKernel(kern, interp.ND1(n, wg))
	bits := make([]uint32, n)
	for i, v := range b.Float32() {
		bits[i] = math.Float32bits(v)
	}
	return launchResult{bits: bits, q: q, fw: fw, kern: kern.Compiled(), err: lerr}
}

// plainReference runs the same launch with no interposer installed.
func plainReference(t *testing.T, src, kname string, n, wg int, seed int64) []uint32 {
	t.Helper()
	res := runLaunch(t, src, kname, n, wg, seed, nil, nil, nil)
	if res.err != nil {
		t.Fatalf("plain reference failed: %v", res.err)
	}
	return res.bits
}

func bitsEqual(t *testing.T, got, want []uint32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output differs from plain path at [%d]: %08x != %08x", i, got[i], want[i])
		}
	}
}

// TestPropertyFallbackBitIdentical: for kernels the malleable transform
// rejects (top-level barrier), the interposed path falls back to ALL
// co-execution and produces buffers bit-identical to the plain path,
// across random inputs and problem sizes.
func TestPropertyFallbackBitIdentical(t *testing.T) {
	model := testModel(t)
	for seed := int64(1); seed <= 5; seed++ {
		n := 128 << (seed % 3) // 128, 256, 512
		want := plainReference(t, barrierSrc, "revtile", n, 64, seed)
		res := runLaunch(t, barrierSrc, "revtile", n, 64, seed,
			func(m *sim.Machine) *Framework { return New(m, model) }, nil, nil)
		if res.err != nil {
			t.Fatalf("seed %d: interposed launch failed closed: %v", seed, res.err)
		}
		bitsEqual(t, res.bits, want)
		snap := res.fw.Stats.Snapshot()
		if snap.CoExecAll != 1 {
			t.Fatalf("seed %d: expected one CoExecAll fallback, got %s", seed, snap)
		}
		if snap.ByStage[faults.StageTransform] != 1 {
			t.Fatalf("seed %d: degradation not attributed to transform: %s", seed, snap)
		}
		qsnap := res.q.Fallback.Snapshot()
		if qsnap.CoExecAll != 1 {
			t.Fatalf("seed %d: per-queue stats missed the fallback: %s", seed, qsnap)
		}
		// The transform rejection is classified as an unsupported kernel.
		_, merr := res.fw.Malleable(res.kern, 1)
		if !errors.Is(merr, faults.ErrUnsupportedKernel) {
			t.Fatalf("seed %d: malleable rejection not classified: %v", seed, merr)
		}
	}
}
