package sched_test

import (
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// TestMemoHitRelaunchAllocs measures what a relaunch answered from the
// model memo allocates, on one shard with no learner: a relaunch as a
// managed launch makes it (a new executor: bind, launch, one functional
// run, and the pin reason it reports), and a bare re-launch plus model on
// one executor, which is where the launch identity is derived and the
// memo consulted. The latter allocates the identity's shape key and, for
// a kernel with profile inputs, their views, and nothing else. A managed
// relaunch passes the kernel's malleable form, as the framework's managed
// rung does; it only changes the simulated timing, so on the CPU-only
// configuration, whose plan it cannot change, it allocates no more than a
// relaunch without it; race builds skip that comparison, since a run
// simulates and the race detector makes the simulator's pool drop its
// scratch at random.
func TestMemoHitRelaunchAllocs(t *testing.T) {
	ws, err := workloads.RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Kaveri()
	for _, w := range ws {
		if w.Kernel != "spmv" && w.Kernel != "gesummv" {
			continue
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		mall, err := transform.MalleableGPU(k, inst.ND.Dims)
		if err != nil {
			t.Fatal(err)
		}
		var e *sched.Executor
		var gpuKernel *clc.Kernel
		cfg := m.AllResources()
		relaunch := func() {
			var err error
			if e, err = sched.NewExecutor(m, k, gpuKernel); err != nil {
				t.Fatal(err)
			}
			e.Parallelism = interp.Sequential
			if err := e.Bind(inst.Args...); err != nil {
				t.Fatal(err)
			}
			if err := e.Launch(inst.ND); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(cfg, sched.RunOptions{Functional: true}); err != nil {
				t.Fatal(err)
			}
			e.PinReason()
		}
		relaunch()
		if e.Profiled() {
			relaunch()
		}
		if e.Profiled() {
			t.Fatalf("%s: the relaunch profiled again", w.Name)
		}
		full := testing.AllocsPerRun(50, relaunch)
		cfg = m.CPUOnly()
		cpuOnly := testing.AllocsPerRun(50, relaunch)
		gpuKernel = mall.Kernel
		managed := testing.AllocsPerRun(50, relaunch)
		model := testing.AllocsPerRun(50, func() {
			if err := e.Launch(inst.ND); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Model(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per managed relaunch; CPU-only %.0f, %.0f with the malleable kernel; %.0f per re-launch and model",
			w.Name, full, cpuOnly, managed, model)
		if managed > cpuOnly && !sched.RaceBuild {
			t.Errorf("%s: a CPU-only relaunch with the malleable kernel allocates %.0f times, %.0f without it",
				w.Name, managed, cpuOnly)
		}
		want := 1.0
		if len(e.Analysis().ProfileInputs) > 0 {
			want++
		}
		if model > want {
			t.Errorf("%s: a re-launch and model allocates %.0f times, want %.0f", w.Name, model, want)
		}
	}
}
