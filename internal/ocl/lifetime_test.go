package ocl_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/interp"
	"dopia/internal/ocl"
	"dopia/internal/sim"
)

// TestEvictedProgramArtifactsAreCollectable is the lifetime half of the
// ownership rule: a kernel's analysis and malleable code are reachable
// only through the kernel, so once the application has dropped its
// Program and the program cache has evicted the source, a managed launch
// leaves nothing behind. (The finalizers sit on the artifacts, not on
// the kernel: a kernel and its compiled forms reference each other, and
// the runtime does not finalize members of a cycle.)
func TestEvictedProgramArtifactsAreCollectable(t *testing.T) {
	m := sim.Kaveri()
	ctx := ocl.NewPlatform(m).CreateContext()
	fw := core.New(m, nil)
	fw.Attach(ctx)

	freed := make(chan string, 2)
	func() {
		prog := ctx.CreateProgramWithSource(lifetimeSrc(-1))
		if err := prog.Build(); err != nil {
			t.Fatal(err)
		}
		kern, err := prog.CreateKernel("k")
		if err != nil {
			t.Fatal(err)
		}
		const n = 64
		if err := kern.SetArg(0, ctx.CreateFloatBuffer(n)); err != nil {
			t.Fatal(err)
		}
		if err := kern.SetArg(1, n); err != nil {
			t.Fatal(err)
		}
		q := ctx.CreateCommandQueue(ctx.Platform().Device(ocl.DeviceCPU))
		if err := q.EnqueueNDRangeKernel(kern, interp.ND1(n, 16)); err != nil {
			t.Fatal(err)
		}
		if s := fw.Stats.Snapshot(); s.Managed != 1 {
			t.Fatalf("launch not managed, so it derived no malleable code: %s", s)
		}
		res, err := fw.Analysis(kern.Compiled())
		if err != nil {
			t.Fatal(err)
		}
		mall, err := fw.Malleable(kern.Compiled(), 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(res, func(any) { freed <- "analysis" })
		runtime.SetFinalizer(mall, func(any) { freed <- "malleable" })
	}()

	// Still resident: a collection must not free what the cache holds.
	runtime.GC()
	select {
	case what := <-freed:
		t.Fatalf("%s of a resident program was collected", what)
	case <-time.After(50 * time.Millisecond):
	}

	for i := 0; i < clc.ProgCacheCap; i++ {
		if err := ctx.CreateProgramWithSource(lifetimeSrc(i)).Build(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("only %d of 2 artifacts of an evicted, unreferenced program were collected", got)
		}
	}
}

func lifetimeSrc(i int) string {
	return fmt.Sprintf(`__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) a[i] = a[i] + %d.0f; // lifetime
}`, i+100)
}
