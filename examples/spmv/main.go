// SpMV: sparse matrix-vector multiplication over CSR under Dopia.
//
// The example builds a random sparse matrix, runs y = A*x under Dopia
// management, verifies the result against a host-side reference, and
// compares the simulated time with single-device execution — the
// irregular, indirect accesses of SpMV make it a memory-system stress
// case where the right degree of parallelism matters (paper Figure 3).
//
//	go run ./examples/spmv
package main

import (
	"fmt"
	"log"
	"math"

	"dopia"
)

const spmvSrc = `
__kernel void spmv(__global int* rowptr, __global int* colidx,
                   __global float* val, __global float* x,
                   __global float* y, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int k = rowptr[i]; k < rowptr[i + 1]; k++) {
            acc += val[k] * x[colidx[k]];
        }
        y[i] = acc;
    }
}`

// buildCSR creates a deterministic pseudo-random CSR matrix.
func buildCSR(rows, cols, avgNNZ int) (rowptr, colidx []int32, val []float32) {
	state := uint32(0x2545F491)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	rowptr = make([]int32, rows+1)
	for r := 0; r < rows; r++ {
		ln := avgNNZ/2 + int(next()%uint32(avgNNZ+1))
		for k := 0; k < ln; k++ {
			colidx = append(colidx, int32(next()%uint32(cols)))
			val = append(val, float32(next()%1000)/500-1)
		}
		rowptr[r+1] = int32(len(colidx))
	}
	return
}

func main() {
	machine := dopia.Kaveri()
	platform := dopia.NewPlatform(machine)
	ctx := platform.CreateContext()

	// Train Dopia.
	train, err := dopia.DefaultTrainingSet.Workloads()
	if err != nil {
		log.Fatal(err)
	}
	model, err := dopia.TrainDefaultModel(machine, train)
	if err != nil {
		log.Fatal(err)
	}

	n := 2048
	rowptr, colidx, val := buildCSR(n, n, 32)
	fmt.Printf("SpMV: %dx%d CSR matrix, %d non-zeros\n", n, n, len(val))

	prog := ctx.CreateProgramWithSource(spmvSrc)
	if err := prog.Build(); err != nil {
		log.Fatal(err)
	}

	run := func(managed bool, dev dopia.DeviceType) (float64, []float32) {
		kern, err := prog.CreateKernel("spmv")
		if err != nil {
			log.Fatal(err)
		}
		rp := ctx.CreateIntBuffer(len(rowptr))
		copy(rp.Int32(), rowptr)
		ci := ctx.CreateIntBuffer(len(colidx))
		copy(ci.Int32(), colidx)
		v := ctx.CreateFloatBuffer(len(val))
		copy(v.Float32(), val)
		x := ctx.CreateFloatBuffer(n)
		for i := range x.Float32() {
			x.Float32()[i] = float32(i%13) / 13
		}
		y := ctx.CreateFloatBuffer(n)
		for i, a := range []any{rp, ci, v, x, y, n} {
			if err := kern.SetArg(i, a); err != nil {
				log.Fatal(err)
			}
		}
		if managed {
			dopia.NewFramework(machine, model).Attach(ctx)
		} else {
			ctx.SetInterposer(nil)
		}
		q := ctx.CreateCommandQueue(platform.Device(dev))
		if err := q.EnqueueNDRangeKernel(kern, dopia.ND1(n, 256)); err != nil {
			log.Fatal(err)
		}
		return q.SimTime, y.Float32()
	}

	cpuT, _ := run(false, dopia.DeviceCPU)
	gpuT, _ := run(false, dopia.DeviceGPU)
	dopiaT, y := run(true, dopia.DeviceCPU)
	fmt.Printf("CPU-only: %.4g ms\nGPU-only: %.4g ms\nDopia:    %.4g ms\n",
		cpuT*1e3, gpuT*1e3, dopiaT*1e3)

	// Verify.
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(i%13) / 13
	}
	worst := 0.0
	for r := 0; r < n; r++ {
		var acc float32
		for k := rowptr[r]; k < rowptr[r+1]; k++ {
			acc += val[k] * x[colidx[k]]
		}
		if d := math.Abs(float64(y[r] - acc)); d > worst {
			worst = d
		}
	}
	fmt.Printf("max deviation from host reference: %.3g\n", worst)
}
