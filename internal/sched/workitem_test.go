package sched_test

import (
	"fmt"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/transform"
)

// queryKernel records, at each work-item's own flattened global id, the
// launch-level work-item queries of both dimensions packed into one int.
const queryKernel = `__kernel void queries(__global int* out0, __global int* out1) {
    int gid = (int)(get_global_id(1) * get_global_size(0) + get_global_id(0));
    out0[gid] = (int)(get_group_id(0) * 1000000 + get_num_groups(0) * 1000 + get_global_size(0) + get_global_offset(0));
    out1[gid] = (int)(get_group_id(1) * 1000000 + get_num_groups(1) * 1000 + get_global_size(1) + get_global_offset(1));
}`

// TestWorkItemQueriesInvariantUnderCoExecution: however the simulated
// schedule splits a launch between the devices, every work-item sees the
// launch it belongs to — its group id, the group count, the global size
// and the global offset of the whole ND range — so a co-executed launch
// stores exactly the bytes of the CPU-only run and of a plain
// interp.Exec.Run, with or without the malleable kernel.
func TestWorkItemQueriesInvariantUnderCoExecution(t *testing.T) {
	prog, err := clc.Compile(queryKernel)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("queries")
	ranges := []interp.NDRange{interp.ND1(4096, 64), interp.ND2(128, 64, 16, 8)}
	machines := []*sim.Machine{sim.Kaveri(), sim.Skylake()}

	// run executes one launch and returns its two output buffers.
	type outputs [2]*interp.Buffer
	newOutputs := func(nd interp.NDRange) (outputs, []interp.Arg) {
		n := nd.TotalItems()
		o := outputs{interp.NewIntBuffer(n), interp.NewIntBuffer(n)}
		return o, []interp.Arg{interp.BufArg(o[0]), interp.BufArg(o[1])}
	}
	plain := func(nd interp.NDRange) outputs {
		o, args := newOutputs(nd)
		ex, err := interp.NewExec(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Bind(args...); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(nd); err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	managed := func(m *sim.Machine, mall *clc.Kernel, nd interp.NDRange, cfg sim.Config, dist sim.Distribution) outputs {
		o, args := newOutputs(nd)
		e, err := sched.NewExecutor(m, k, mall)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Bind(args...); err != nil {
			t.Fatal(err)
		}
		if err := e.Launch(nd); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(cfg, sched.RunOptions{Dist: dist, CPUShare: 0.5, Functional: true}); err != nil {
			t.Fatal(err)
		}
		return o
	}

	for _, nd := range ranges {
		want := plain(nd)
		mall, err := transform.MalleableGPU(k, nd.Dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			cpuOnly := managed(m, nil, nd, m.CPUOnly(), sim.Dynamic)
			for d := range want {
				if !cpuOnly[d].Equal(want[d]) {
					t.Fatalf("%d-D on %s: CPU-only dimension %d differs from a plain run", nd.Dims, m.Name, d)
				}
			}
			for _, mk := range []*clc.Kernel{nil, mall.Kernel} {
				for _, cfg := range []sim.Config{m.AllResources(), m.GPUOnly()} {
					for _, dist := range sim.Distributions() {
						name := fmt.Sprintf("%d-D/%s/%v/%s/malleable=%t", nd.Dims, m.Name, cfg, dist, mk != nil)
						got := managed(m, mk, nd, cfg, dist)
						for d := range want {
							if i := firstDiff(got[d], want[d]); i >= 0 {
								t.Errorf("%s: dimension %d element %d reads %d, the CPU-only run %d",
									name, d, i, got[d].I32[i], want[d].I32[i])
							}
						}
					}
				}
			}
		}
	}
}

// firstDiff returns the first element at which two int buffers differ,
// or -1.
func firstDiff(a, b *interp.Buffer) int {
	for i := range b.I32 {
		if a.I32[i] != b.I32[i] {
			return i
		}
	}
	return -1
}
