package sched_test

import (
	"testing"

	"dopia/internal/interp"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// BenchmarkGPUSpan times one functional launch of each real kernel on
// Kaveri at the relaunch workload's geometry (1-D kernels at n=1024, 2-D
// at 256, SpMV at 512; 64-item work-groups), once all on the CPU and once
// all on the GPU. Both run the original kernel's work-groups over the one
// launched ND range, so the gpu/cpu time ratio of a class is what a GPU
// span costs over a CPU one.
func BenchmarkGPUSpan(b *testing.B) {
	m := sim.Kaveri()
	for _, d := range workloads.RealDescs() {
		n := 1024
		switch {
		case d.TwoDim:
			n = 256
		case d.Name == "SpMV":
			n = 512
		}
		w, err := d.Build(n, 64)
		if err != nil {
			b.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			b.Fatal(err)
		}
		mall, err := transform.MalleableGPU(k, w.WorkDim)
		if err != nil {
			b.Fatal(err)
		}
		for _, side := range []struct {
			name string
			cfg  sim.Config
		}{{"cpu", m.CPUOnly()}, {"gpu", m.GPUOnly()}} {
			b.Run(w.Name+"/"+side.name, func(b *testing.B) {
				inst, err := w.Setup()
				if err != nil {
					b.Fatal(err)
				}
				var bufs []int
				for i, a := range inst.Args {
					if a.IsBuf {
						bufs = append(bufs, i)
					}
				}
				pristine := interp.SnapshotArgs(inst.Args, bufs)
				e, err := sched.NewExecutor(m, k, mall.Kernel)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Bind(inst.Args...); err != nil {
					b.Fatal(err)
				}
				if err := e.Launch(inst.ND); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Model(); err != nil {
					b.Fatal(err)
				}
				opts := sched.RunOptions{Dist: sim.Dynamic, Functional: true}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Read-modify-write kernels accumulate: start every
					// launch from the same bytes.
					b.StopTimer()
					pristine.Restore()
					b.StartTimer()
					if _, err := e.Run(side.cfg, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
