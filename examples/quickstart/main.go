// Quickstart: run an OpenCL kernel under Dopia management.
//
// The program builds a small training set, trains Dopia's decision-tree
// model, attaches the framework to an OpenCL context, and enqueues a
// matrix-vector kernel. Dopia transparently analyzes the kernel, predicts
// the best CPU/GPU degree of parallelism, and co-executes the launch with
// dynamic workload distribution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dopia"
)

const kernelSrc = `
__kernel void matvec(__global float* A, __global float* x,
                     __global float* y, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int j = 0; j < N; j++) {
            acc += A[i * N + j] * x[j];
        }
        y[i] = acc;
    }
}`

func main() {
	machine := dopia.Kaveri()
	platform := dopia.NewPlatform(machine)
	ctx := platform.CreateContext()

	// Train Dopia's model on the default training set, an evenly spread
	// slice of the paper's synthetic workload grid (the full 1,224-workload
	// grid is available via dopia.SyntheticWorkloads; a slice keeps the
	// quickstart fast).
	train, err := dopia.DefaultTrainingSet.Workloads()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training Dopia's model on %d synthetic workloads...\n", len(train))
	model, err := dopia.TrainDefaultModel(machine, train)
	if err != nil {
		log.Fatal(err)
	}
	fw := dopia.NewFramework(machine, model)
	fw.Attach(ctx) // from here on, every enqueue is Dopia-managed

	// Standard OpenCL application flow.
	prog := ctx.CreateProgramWithSource(kernelSrc)
	if err := prog.Build(); err != nil {
		log.Fatal(err)
	}
	kern, err := prog.CreateKernel("matvec")
	if err != nil {
		log.Fatal(err)
	}

	n := 1024
	A := ctx.CreateFloatBuffer(n * n)
	x := ctx.CreateFloatBuffer(n)
	y := ctx.CreateFloatBuffer(n)
	for i := range A.Float32() {
		A.Float32()[i] = float32(i%17) / 16
	}
	for i := range x.Float32() {
		x.Float32()[i] = float32(i%5) - 2
	}
	for i, v := range []any{A, x, y, n} {
		if err := kern.SetArg(i, v); err != nil {
			log.Fatal(err)
		}
	}

	q := ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
	if err := q.EnqueueNDRangeKernel(kern, dopia.ND1(n, 256)); err != nil {
		log.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		log.Fatal(err)
	}

	r := q.LastResult
	fmt.Printf("simulated time: %.4g ms on %s\n", q.SimTime*1e3, machine.Name)
	fmt.Printf("work distribution: %d work-groups on CPU cores, %d on the GPU (%d chunks)\n",
		r.WGsCPU, r.WGsGPU, r.GPUChunks)

	// Verify against a host-side reference.
	worst := 0.0
	for i := 0; i < n; i++ {
		var acc float32
		for j := 0; j < n; j++ {
			acc += A.Float32()[i*n+j] * x.Float32()[j]
		}
		d := float64(y.Float32()[i] - acc)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("max deviation from host reference: %.3g\n", worst)
}
