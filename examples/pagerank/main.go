// PageRank: an iterative application under Dopia.
//
// Each PageRank iteration is one kernel enqueue; Dopia selects the degree
// of parallelism per launch (the decision is identical across iterations
// since the features do not change, demonstrating the low steady-state
// overhead of the deployed decision-tree model). The example runs to
// convergence with ping-ponged rank buffers.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"math"

	"dopia"
)

const pagerankSrc = `
__kernel void pagerank(__global int* rowptr, __global int* colidx,
                       __global float* rank, __global float* outdeg,
                       __global float* next, float damp, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int k = rowptr[i]; k < rowptr[i + 1]; k++) {
            int src = colidx[k];
            acc += rank[src] / outdeg[src];
        }
        next[i] = (1.0f - damp) / (float)N + damp * acc;
    }
}`

func main() {
	machine := dopia.Skylake()
	platform := dopia.NewPlatform(machine)
	ctx := platform.CreateContext()

	train, err := dopia.DefaultTrainingSet.Workloads()
	if err != nil {
		log.Fatal(err)
	}
	model, err := dopia.TrainDefaultModel(machine, train)
	if err != nil {
		log.Fatal(err)
	}
	dopia.NewFramework(machine, model).Attach(ctx)

	// Build a random graph (in-edge CSR) with deterministic structure.
	n := 4096
	degree := 12
	state := uint32(0xBEEF)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	rowptr := make([]int32, n+1)
	var colidx []int32
	for v := 0; v < n; v++ {
		ln := degree/2 + int(next()%uint32(degree))
		for k := 0; k < ln; k++ {
			colidx = append(colidx, int32(next()%uint32(n)))
		}
		rowptr[v+1] = int32(len(colidx))
	}
	outdeg := make([]float32, n)
	for _, c := range colidx {
		outdeg[c]++
	}
	for i := range outdeg {
		if outdeg[i] == 0 {
			outdeg[i] = 1
		}
	}

	prog := ctx.CreateProgramWithSource(pagerankSrc)
	if err := prog.Build(); err != nil {
		log.Fatal(err)
	}
	kern, err := prog.CreateKernel("pagerank")
	if err != nil {
		log.Fatal(err)
	}

	rp := ctx.CreateIntBuffer(len(rowptr))
	copy(rp.Int32(), rowptr)
	ci := ctx.CreateIntBuffer(len(colidx))
	copy(ci.Int32(), colidx)
	od := ctx.CreateFloatBuffer(n)
	copy(od.Float32(), outdeg)
	rank := ctx.CreateFloatBuffer(n)
	nextRank := ctx.CreateFloatBuffer(n)
	for i := range rank.Float32() {
		rank.Float32()[i] = 1 / float32(n)
	}

	q := ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
	damp := float32(0.85)
	const maxIter = 50
	iter := 0
	for ; iter < maxIter; iter++ {
		for i, a := range []any{rp, ci, rank, od, nextRank, damp, n} {
			if err := kern.SetArg(i, a); err != nil {
				log.Fatal(err)
			}
		}
		if err := q.EnqueueNDRangeKernel(kern, dopia.ND1(n, 256)); err != nil {
			log.Fatal(err)
		}
		// Convergence check (L1 delta).
		var delta float64
		for i := range rank.Float32() {
			delta += math.Abs(float64(nextRank.Float32()[i] - rank.Float32()[i]))
		}
		rank, nextRank = nextRank, rank
		if delta < 1e-6 {
			iter++
			break
		}
	}

	fmt.Printf("PageRank on %s: %d vertices, %d edges\n", machine.Name, n, len(colidx))
	fmt.Printf("converged after %d iterations, total simulated time %.4g ms\n",
		iter, q.SimTime*1e3)
	r := q.LastResult
	fmt.Printf("last iteration split: %d work-groups on CPU, %d on GPU\n", r.WGsCPU, r.WGsGPU)

	// Top-ranked vertices.
	type vr struct {
		v int
		r float32
	}
	top := make([]vr, 0, 5)
	for v, rv := range rank.Float32() {
		top = append(top, vr{v, rv})
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].r > top[i].r {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	var mass float64
	for _, t := range top {
		mass += float64(t.r)
	}
	fmt.Printf("top-5 vertices: ")
	for i := 0; i < 5; i++ {
		fmt.Printf("v%d=%.5f ", top[i].v, top[i].r)
	}
	fmt.Println()
}
