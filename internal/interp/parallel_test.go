package interp_test

// Equivalence and robustness tests for the parallel ND-range engine.
// They live in an external test package so they can drive the real
// workload suite (package workloads imports interp).
//
// Run with -race: the shard workers share only read-only state and the
// disjoint output buffers, so the race detector doubles as a proof that
// the partitioning really is disjoint.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// runInstance executes one workload instance on a fresh Exec with the
// given parallelism and returns the executor (for stats/buffers).
func runInstance(t *testing.T, k *clc.Kernel, inst *workloads.Instance, parallelism int) *interp.Exec {
	t.Helper()
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	ex.Parallelism = parallelism
	if err := ex.Bind(inst.Args...); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := ex.Launch(inst.ND); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := ex.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return ex
}

// observe summarizes one finished run as a conformance observation:
// bit-exact byte images of every buffer argument and the statistics
// profile.
// Comparisons then go through conformance.AssertIdentical, the canonical
// equivalence check shared with the differential-conformance oracle, so
// every divergence is reported with its first divergent byte offset.
func observe(leg string, inst *workloads.Instance, ex *interp.Exec) *conformance.Observation {
	obs := &conformance.Observation{Leg: leg, Profile: ex.Stats()}
	for i, a := range inst.Args {
		if a.IsBuf {
			obs.Buffers = append(obs.Buffers, conformance.BufferObs{
				Name:  fmt.Sprintf("arg%d", i),
				Bytes: conformance.BufferBytes(a.Buf),
			})
		}
	}
	return obs
}

// TestParallelMatchesSequentialRealWorkloads runs every real workload on
// the sequential reference path and on a 4-way sharded run and demands
// bit-identical output buffers and statistics profiles.
func TestParallelMatchesSequentialRealWorkloads(t *testing.T) {
	ws, err := workloads.RealWorkloads(128, 32)
	if err != nil {
		t.Fatalf("RealWorkloads: %v", err)
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			k, err := w.CompileKernel()
			if err != nil {
				t.Fatalf("CompileKernel: %v", err)
			}
			seqInst, err := w.Setup()
			if err != nil {
				t.Fatalf("Setup: %v", err)
			}
			parInst, err := w.Setup()
			if err != nil {
				t.Fatalf("Setup: %v", err)
			}
			seq := runInstance(t, k, seqInst, interp.Sequential)
			par := runInstance(t, k, parInst, 4)
			conformance.AssertIdentical(t,
				observe("closures/seq", seqInst, seq),
				observe("closures/shards=4", parInst, par))
		})
	}
}

// TestShardCountInvariance is the property test: no shard count — one,
// two, NumCPU, or more shards than work-groups — may change buffers or
// statistics relative to the sequential run, including across repeated
// Run calls on the same executor (chain state spans runs).
func TestShardCountInvariance(t *testing.T) {
	ws, err := workloads.RealWorkloads(64, 16)
	if err != nil {
		t.Fatalf("RealWorkloads: %v", err)
	}
	// Three representatives keep the property run fast; the full suite is
	// covered by TestParallelMatchesSequentialRealWorkloads.
	picked := ws
	if len(picked) > 3 {
		picked = picked[:3]
	}
	counts := []int{interp.Sequential, 2, 3, runtime.NumCPU(), 1 << 20}
	for _, w := range picked {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			k, err := w.CompileKernel()
			if err != nil {
				t.Fatalf("CompileKernel: %v", err)
			}
			refInst, err := w.Setup()
			if err != nil {
				t.Fatalf("Setup: %v", err)
			}
			ref := runInstance(t, k, refInst, interp.Sequential)
			// Second run on the same executor: merge must continue the
			// chain state exactly like the sequential stream does.
			if err := ref.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			refObs := observe("closures/seq", refInst, ref)
			for _, p := range counts {
				inst, err := w.Setup()
				if err != nil {
					t.Fatalf("Setup: %v", err)
				}
				ex := runInstance(t, k, inst, p)
				if err := ex.Run(); err != nil {
					t.Fatalf("Run (p=%d): %v", p, err)
				}
				conformance.AssertIdentical(t, refObs,
					observe(fmt.Sprintf("closures/shards=%d", p), inst, ex))
			}
		})
	}
}

const cancelKernel = `
__kernel void spin(__global float* a) {
	int i = get_global_id(0);
	float x = a[i];
	for (int j = 0; j < 64; j++) {
		x = x * 0.5f + 1.0f;
	}
	a[i] = x;
}`

// TestParallelCancellationLatency arms Exec.Check to fail after a few
// polls and verifies that a sharded run over a large group space aborts
// within one work-group quantum per shard — the watchdog contract.
func TestParallelCancellationLatency(t *testing.T) {
	prog, err := clc.Compile(cancelKernel)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ex, err := interp.NewExec(prog.Kernel("spin"))
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	const parallelism = 4
	ex.Parallelism = parallelism
	buf := interp.NewFloatBuffer(4096 * 16)
	if err := ex.Bind(interp.BufArg(buf)); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := ex.Launch(interp.ND1(4096*16, 16)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	cancelErr := errors.New("deadline exceeded")
	var polls atomic.Int64
	const trip = 8
	ex.Check = func() error {
		if polls.Add(1) > trip {
			return cancelErr
		}
		return nil
	}
	err = ex.Run()
	if !errors.Is(err, cancelErr) {
		t.Fatalf("Run: got %v, want the cancellation error", err)
	}
	// Check is polled before every group; once tripped, each shard stops
	// at its next poll, so at most `trip` groups ever started.
	if g := ex.Stats().GroupsRun; g > trip {
		t.Errorf("cancellation latency: %d groups ran, want <= %d (one quantum per shard)", g, trip)
	}
	if g := ex.Stats().GroupsRun; g >= 4096 {
		t.Errorf("cancellation had no effect: all %d groups ran", g)
	}
}

// TestParallelErrorPropagation verifies that a runtime fault inside a
// shard worker (out-of-bounds access) is contained, classified, and
// reported — and that repeated failing runs do not wedge the pool.
func TestParallelErrorPropagation(t *testing.T) {
	const src = `
__kernel void oob(__global float* a, int n) {
	int i = get_global_id(0);
	a[i + n] = 1.0f;
}`
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ex, err := interp.NewExec(prog.Kernel("oob"))
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	ex.Parallelism = 4
	buf := interp.NewFloatBuffer(256)
	if err := ex.Bind(interp.BufArg(buf), interp.IntArg(1024)); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := ex.Launch(interp.ND1(256, 16)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := ex.Run(); err == nil {
			t.Fatalf("run %d: expected out-of-bounds error, got nil", i)
		}
	}
}
