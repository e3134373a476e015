package core

import (
	"context"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// oracleBest is the oracle-best configuration of one launch on fw's
// machine: the argmin of the timing-only sweep the learner memoizes.
func oracleBest(t *testing.T, fw *Framework, k *clc.Kernel, args []interp.Arg, nd interp.NDRange) sim.Config {
	t.Helper()
	mall, err := fw.Malleable(k, nd.Dims)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sched.NewExecutor(fw.Machine, k, mall.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Bind(args...); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatal(err)
	}
	cfgs := fw.Machine.Configs()
	rs, err := ex.RunConfigs(cfgs, sched.RunOptions{Dist: fw.Dist})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, r := range rs {
		if r.Time < rs[best].Time {
			best = i
		}
	}
	return cfgs[best]
}

// exploitLaunch repeats a tenant's launch until the bandit leaves one
// alone, so the test sees the exploited answer whatever the coin says.
func exploitLaunch(t *testing.T, fw *Framework, ctx context.Context, k *clc.Kernel, args []interp.Arg, nd interp.NDRange) Decision {
	t.Helper()
	for {
		ex, err := fw.ExecuteCtx(ctx, k, args, nd)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Decision.Explored {
			return ex.Decision
		}
	}
}

// loopSrc is a kernel k whose loop runs trips times: the trip count is a
// literal, so programs that differ only in it have one Table-1 feature
// vector but different amounts of work.
func loopSrc(trips string) string {
	return `__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) {
		float s = a[i];
		for (int j = 0; j < ` + trips + `; j++) s = s * 0.5f + 1.0f;
		a[i] = s;
	}
}`
}

// TestSameNameAcrossPrograms: two programs each define a kernel k with
// one Table-1 feature vector but bodies whose DoP rows differ. A tenant
// that launches the second program's k after another tenant launched the
// first's is answered with the second program's own argmax.
func TestSameNameAcrossPrograms(t *testing.T) {
	fw := New(sim.Kaveri(), fakeBase{0.5})
	fw.Learner = NewLearner(fw.Machine)
	const n = 4096
	nd := interp.ND1(n, 64)
	kernel := func(trips string) *clc.Kernel {
		prog, err := clc.Compile(loopSrc(trips))
		if err != nil {
			t.Fatal(err)
		}
		return prog.Kernel("k")
	}
	light, heavy := kernel("1"), kernel("2000")
	args := func() []interp.Arg {
		return []interp.Arg{interp.BufArg(interp.NewFloatBuffer(n)), interp.IntArg(n)}
	}
	features := func(k *clc.Kernel) ml.Features {
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		return BaseFeatures(res, nd)
	}
	if features(light) != features(heavy) {
		t.Fatalf("the two kernels must share a feature vector: %v vs %v", features(light), features(heavy))
	}
	bestLight, bestHeavy := oracleBest(t, fw, light, args(), nd), oracleBest(t, fw, heavy, args(), nd)
	if bestLight == bestHeavy {
		t.Fatalf("both programs' oracle best is %v: the test cannot tell the rows apart", bestLight)
	}

	s1 := WithTenant(context.Background(), "s-1")
	s2 := WithTenant(context.Background(), "s-2")
	exploitLaunch(t, fw, s1, light, args(), nd)
	exploitLaunch(t, fw, s2, heavy, args(), nd)
	if dec := exploitLaunch(t, fw, s2, heavy, args(), nd); !dec.Learned || dec.Config != bestHeavy {
		t.Fatalf("second program's relaunch: %+v, want its own oracle best %v, learned (the first program's is %v)",
			dec, bestHeavy, bestLight)
	}
}

// TestRelaunchOnNewData: SpMV relaunched at one geometry after its
// matrix structure (analysis.Result.ProfileInputs: rowptr and colidx) is
// rewritten is not answered from the old data's row; the next launch on
// the new data is answered from the new data's own.
func TestRelaunchOnNewData(t *testing.T) {
	fw := New(sim.Kaveri(), fakeBase{0.5})
	fw.Learner = NewLearner(fw.Machine)
	const n = 1024
	var k *clc.Kernel
	ws, err := workloads.RealWorkloads(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Kernel == "spmv" {
			if k, err = w.CompileKernel(); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := workloads.RandomCSR(n, n, 128, 42)
	rowptr, colidx := interp.FromInts(m.RowPtr), interp.FromInts(m.ColIdx)
	args := []interp.Arg{
		interp.BufArg(rowptr), interp.BufArg(colidx),
		interp.BufArg(interp.FromFloats(m.Val)), interp.BufArg(workloads.NewFilledFloat(n, 7)),
		interp.BufArg(interp.NewFloatBuffer(n)), interp.IntArg(n),
	}
	nd := interp.ND1(n, 64)
	oldBest := oracleBest(t, fw, k, args, nd)

	ctx := WithTenant(context.Background(), "s-1")
	exploitLaunch(t, fw, ctx, k, args, nd)
	if dec := exploitLaunch(t, fw, ctx, k, args, nd); !dec.Learned || dec.Config != oldBest {
		t.Fatalf("relaunch on the same data: %+v, want the oracle best %v, learned", dec, oldBest)
	}

	// A banded matrix of the same row lengths: the columns run on
	// contiguously from row to row instead of scattering.
	for i := range colidx.I32 {
		colidx.I32[i] = int32(i % n)
	}
	newBest := oracleBest(t, fw, k, args, nd)
	if newBest == oldBest {
		t.Fatalf("the rewrite left the oracle best at %v: the test cannot tell the rows apart", oldBest)
	}
	if dec := exploitLaunch(t, fw, ctx, k, args, nd); dec.Learned && dec.Config != newBest {
		t.Fatalf("first launch on the new data answered from a row: %+v (old best %v, new best %v)", dec, oldBest, newBest)
	}
	if dec := exploitLaunch(t, fw, ctx, k, args, nd); !dec.Learned || dec.Config != newBest {
		t.Fatalf("relaunch on the new data: %+v, want the new oracle best %v, learned", dec, newBest)
	}
}
